import csv

import numpy as np
import pytest

from lcseg.bat import (
    BatParams,
    bat_optimize,
    between_class_variance,
    optimize_threshold,
    otsu_fitness,
    otsu_threshold,
    write_convergence_csv,
)
from lcseg.histeq import histogram
from lcseg.image import PhantomSpec, generate_phantom


def test_quadratic_argmax_found():
    for seed in (0, 1, 2, 3, 4):
        params = BatParams(population=20, iterations=200, seed=seed)
        state = bat_optimize(params, lambda x: -((x - 3.0) ** 2))
        assert abs(state.best_position - 3.0) <= 0.05
        # grid oracle: no grid point may beat the returned best materially
        grid = np.linspace(0.0, 255.0, 10_000)
        grid_best = float(np.max(-((grid - 3.0) ** 2)))
        assert state.best_fitness >= grid_best - 1e-3


def test_constant_fitness_flat_history():
    params = BatParams(population=5, iterations=20, seed=9)
    state = bat_optimize(params, lambda x: 7.0)
    assert state.best_fitness == 7.0
    assert state.history == [7.0] * 20


def test_determinism_same_seed_identical_state():
    params = BatParams(population=8, iterations=50, seed=123)
    s1 = bat_optimize(params, lambda x: -((x - 100.0) ** 2))
    s2 = bat_optimize(params, lambda x: -((x - 100.0) ** 2))
    assert np.array_equal(s1.positions, s2.positions)
    assert np.array_equal(s1.velocities, s2.velocities)
    assert np.array_equal(s1.loudness, s2.loudness)
    assert s1.best_position == s2.best_position
    assert s1.history == s2.history


def test_different_seeds_differ():
    p1 = BatParams(population=8, iterations=30, seed=1)
    p2 = BatParams(population=8, iterations=30, seed=2)
    s1 = bat_optimize(p1, lambda x: -((x - 77.0) ** 2))
    s2 = bat_optimize(p2, lambda x: -((x - 77.0) ** 2))
    assert not np.array_equal(s1.positions, s2.positions)


def test_history_monotone_and_bounds_respected():
    lower, upper = 0.0, 255.0
    seen = []

    def instrumented(x):
        seen.append(x)
        return float(np.sin(x / 20.0))

    params = BatParams(population=10, iterations=100, seed=5)
    state = bat_optimize(params, instrumented)
    assert all(a <= b for a, b in zip(state.history, state.history[1:]))
    assert len(state.history) == 100
    assert all(lower <= v <= upper for v in seen)
    assert state.positions.min() >= lower and state.positions.max() <= upper


def test_params_validation():
    with pytest.raises(ValueError):
        BatParams(population=1)
    with pytest.raises(ValueError):
        BatParams(iterations=0)
    with pytest.raises(ValueError):
        BatParams(alpha=1.0)
    with pytest.raises(ValueError):
        BatParams(f_min=3.0, f_max=1.0)


# ---------------------------------------------------------------------------
# Otsu objective
# ---------------------------------------------------------------------------

def test_two_valued_image_closed_form():
    img = np.array([[50] * 8 + [200] * 8], dtype=np.uint8).reshape(4, 4)
    sigma = between_class_variance(histogram(img))
    # closed form: (0.5)(0.5)(150^2) on the separating plateau
    assert sigma[50] == pytest.approx(5625.0, abs=1e-9)
    assert sigma[125] == pytest.approx(5625.0, abs=1e-9)
    assert sigma[199] == pytest.approx(5625.0, abs=1e-9)
    assert np.argmax(sigma >= 5625.0 - 1e-9) == 50
    assert sigma[49] < 5625.0
    assert sigma[200] == 0.0  # upper class empty
    assert otsu_threshold(histogram(img)) == 50


def test_constant_image_zero_everywhere():
    img = np.full((6, 6), 120, dtype=np.uint8)
    sigma = between_class_variance(histogram(img))
    assert not sigma.any()


def test_otsu_fitness_floor_semantics():
    img = np.array([[50] * 8 + [200] * 8], dtype=np.uint8).reshape(4, 4)
    fit = otsu_fitness(img)
    sigma = between_class_variance(histogram(img))
    assert fit(50.9) == sigma[50]
    assert fit(49.999) == sigma[49]
    assert fit(300.0) == sigma[255]
    assert fit(-3.0) == sigma[0]


def test_bat_reaches_exhaustive_max_on_phantom():
    img, _ = generate_phantom(PhantomSpec(64, 64, 16, 5, 0.0, 2))
    sigma = between_class_variance(histogram(img))
    threshold, state = optimize_threshold(img, BatParams(seed=3))
    assert state.best_fitness == pytest.approx(float(sigma.max()), abs=1e-12)
    assert sigma[threshold] == pytest.approx(float(sigma.max()), abs=1e-12)


def test_optimize_threshold_constant_image():
    img = np.full((8, 8), 60, dtype=np.uint8)
    threshold, state = optimize_threshold(
        img, BatParams(population=5, iterations=10, seed=1)
    )
    assert 0 <= threshold <= 255
    assert state.best_fitness == 0.0


def test_default_params_history_length_500():
    img, _ = generate_phantom(PhantomSpec(64, 64, 16, 5, 20.0, 7))
    _, state = optimize_threshold(img, BatParams(seed=7))
    assert len(state.history) == 500
    assert all(a <= b for a, b in zip(state.history, state.history[1:]))


# ---------------------------------------------------------------------------
# Convergence CSV
# ---------------------------------------------------------------------------

def _fake_state(history):
    return type(
        "S", (), {"history": history}
    )()


def test_csv_row_count(tmp_path):
    path = tmp_path / "c.csv"
    write_convergence_csv(_fake_state([1.0, 2.0, 2.0]), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0] == "iteration,best_fitness"
    assert lines[1].startswith("1,")


def test_csv_six_significant_digits(tmp_path):
    path = tmp_path / "c.csv"
    write_convergence_csv(_fake_state([1234.5678, 0.000123456789]), path)
    rows = path.read_text().splitlines()[1:]
    assert rows[0] == "1,1234.57"
    assert rows[1] == "2,0.000123457"


def test_csv_round_trip(tmp_path):
    img, _ = generate_phantom(PhantomSpec(64, 64, 16, 5, 10.0, 1))
    _, state = optimize_threshold(
        img, BatParams(population=10, iterations=40, seed=2)
    )
    path = tmp_path / "c.csv"
    write_convergence_csv(state, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 40
    for i, row in enumerate(rows):
        assert int(row["iteration"]) == i + 1
        got = float(row["best_fitness"])
        want = state.history[i]
        assert got == pytest.approx(want, rel=1e-5)
