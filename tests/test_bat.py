import copy
import csv
import hashlib
import io
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lcseg.bat import (
    BatParams,
    BatState,
    _draw_tables,
    bat_optimize,
    between_class_variance,
    convergence_csv,
    optimize_threshold,
    otsu_threshold,
)
from lcseg.cli import main
from lcseg.histeq import histogram
from lcseg.config import load_config
from lcseg.image import PhantomSpec, generate_phantom


def oracle_bat(params, table):
    """The bat algorithm one candidate at a time, as the module docstring
    states it; each candidate x scores ``table[floor(x)]`` on its own.

    ``bat_optimize`` evaluates the iterations between events as arrays
    and must return this function's final state bit for bit.  The loop
    scores every candidate, so its ``evaluations`` is population *
    (iterations + 1).
    """
    scores = np.asarray(table, dtype=np.float64).tolist()

    def fitness(x):
        return scores[math.floor(x)]

    n = params.population
    blocks = [
        np.random.Generator(np.random.PCG64(s)).random(1 + 4 * params.iterations).tolist()
        for s in np.random.SeedSequence(params.seed).spawn(n)
    ]
    cursors = [1] * n

    positions = [0.0 + 255.0 * block[0] for block in blocks]
    velocities = [0.0] * n
    loudness = [params.a0] * n
    pulse_rate = [params.r0] * n
    fitnesses = [fitness(x) for x in positions]
    best_idx = fitnesses.index(max(fitnesses))  # the first of equals
    best_position = positions[best_idx]
    best_fitness = fitnesses[best_idx]

    f_min, f_span = params.f_min, params.f_max - params.f_min
    alpha, r0, gamma = params.alpha, params.r0, params.gamma
    history = []
    loudness_changed = True
    for t in range(1, params.iterations + 1):
        ref_best = best_position
        if loudness_changed:
            mean_loudness = float(np.mean(loudness))
            loudness_changed = False
        for i in range(n):
            block = blocks[i]
            c = cursors[i]
            velocities[i] += (positions[i] - ref_best) * (f_min + f_span * block[c])
            if block[c + 1] > pulse_rate[i]:
                cand = ref_best + (-1.0 + 2.0 * block[c + 2]) * mean_loudness
                c += 4
            else:
                cand = positions[i] + velocities[i]
                c += 3
            accept_coin = block[c - 1]  # the iteration's last draw
            cursors[i] = c
            if cand < 0.0:  # the clamp min(max(cand, 0), 255)
                cand = 0.0
            elif cand > 255.0:
                cand = 255.0
            cand_fitness = fitness(cand)
            if accept_coin < loudness[i] and cand_fitness > fitnesses[i]:
                positions[i] = cand
                fitnesses[i] = cand_fitness
                loudness[i] *= alpha
                pulse_rate[i] = r0 * (1.0 - math.exp(-gamma * t))
                loudness_changed = True
            if cand_fitness > best_fitness:
                best_fitness = cand_fitness
                best_position = cand
        history.append(best_fitness)

    return BatState(
        positions=np.array(positions),
        loudness=np.array(loudness),
        pulse_rate=np.array(pulse_rate),
        best_position=best_position,
        best_fitness=best_fitness,
        history=history,
        evaluations=n * (params.iterations + 1),
    )


_THRESHOLDS = np.arange(256.0)


def _quadratic(peak):
    """A table with its one maximum, 0, at threshold ``peak``."""
    return -((_THRESHOLDS - peak) ** 2)


def test_quadratic_argmax_found():
    for seed in (0, 1, 2, 3, 4):
        params = BatParams(population=20, iterations=200, seed=seed)
        state = bat_optimize(params, _quadratic(3.0))
        assert math.floor(state.best_position) == 3
        assert state.best_fitness == 0.0


def test_constant_fitness_flat_history():
    params = BatParams(population=5, iterations=20, seed=9)
    state = bat_optimize(params, np.full(256, 7.0))
    assert state.best_fitness == 7.0
    assert state.history == [7.0] * 20
    assert state.evaluations == 5  # settled before the first iteration


def test_determinism_same_seed_identical_state():
    params = BatParams(population=8, iterations=50, seed=123)
    s1 = bat_optimize(params, _quadratic(100.0))
    s2 = bat_optimize(params, _quadratic(100.0))
    assert np.array_equal(s1.positions, s2.positions)
    assert np.array_equal(s1.loudness, s2.loudness)
    assert s1.best_position == s2.best_position
    assert s1.history == s2.history


def test_different_seeds_differ():
    p1 = BatParams(population=8, iterations=30, seed=1)
    p2 = BatParams(population=8, iterations=30, seed=2)
    s1 = bat_optimize(p1, _quadratic(77.0))
    s2 = bat_optimize(p2, _quadratic(77.0))
    assert not np.array_equal(s1.positions, s2.positions)


def test_history_monotone_and_bounds_respected():
    table = np.sin(_THRESHOLDS / 20.0)
    params = BatParams(population=10, iterations=100, seed=5)
    state = bat_optimize(params, table)
    assert all(a <= b for a, b in zip(state.history, state.history[1:]))
    assert len(state.history) == 100
    assert state.best_fitness == table[math.floor(state.best_position)]
    assert state.positions.min() >= 0.0 and state.positions.max() <= 255.0
    assert state.evaluations >= params.population


@pytest.mark.parametrize(
    "table",
    [
        np.zeros(255),
        np.zeros(257),
        np.zeros((16, 16)),
        0.0,
        np.where(_THRESHOLDS == 9.0, math.nan, 1.0),
        np.where(_THRESHOLDS == 0.0, math.inf, 1.0),
        np.where(_THRESHOLDS == 255.0, -math.inf, 1.0),
    ],
    ids=["255", "257", "16x16", "scalar", "nan", "inf", "-inf"],
)
def test_table_that_is_not_256_finite_values_is_rejected(table):
    with pytest.raises(ValueError, match="256 finite values"):
        bat_optimize(BatParams(population=2, iterations=1), table)


def test_params_validation():
    with pytest.raises(ValueError):
        BatParams(population=1)
    with pytest.raises(ValueError):
        BatParams(iterations=0)
    with pytest.raises(ValueError):
        BatParams(alpha=1.0)
    with pytest.raises(ValueError):
        BatParams(f_min=3.0, f_max=1.0)


@pytest.mark.parametrize("name", ["population", "iterations"])
@pytest.mark.parametrize("value", [3.5, 10.0, "8", True])
def test_params_reject_non_integer_counts(name, value):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        BatParams(**{name: value})


@pytest.mark.parametrize("name", ["f_min", "f_max", "gamma", "a0"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_params_reject_non_finite_settings(name, value):
    kwargs = {name: value}
    if name == "f_min" and value == -math.inf:
        kwargs["f_max"] = -math.inf  # so that f_min <= f_max alone would pass
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        BatParams(**kwargs)


@pytest.mark.parametrize("f_min, f_max", [(-1e308, 1e308), (-9e307, 9e307)])
def test_params_reject_overflowing_frequency_span(f_min, f_max):
    # Each bound is finite, but the span the velocity update scales by is not.
    with pytest.raises(ValueError, match="f_max - f_min must be finite"):
        BatParams(f_min=f_min, f_max=f_max)
    assert BatParams(f_min=-1e300, f_max=1e300).f_max == 1e300


def test_params_reject_an_unbounded_velocity(tmp_path, capsys):
    """f = +-1e307 over 50 iterations keeps f_max - f_min finite, but the
    velocities could overflow to inf and then NaN; the settings are
    refused at construction, at load and by ``lcseg run`` before any stage."""
    message = r"velocity bound .* must be finite"
    with pytest.raises(ValueError, match=message):
        BatParams(f_min=-1e307, f_max=1e307, iterations=50)
    config = tmp_path / "bat.ini"
    config.write_text("[bat]\nf_min = -1e307\nf_max = 1e307\niterations = 50\n")
    with pytest.raises(ValueError, match=message):
        load_config(config)
    out = tmp_path / "out"
    missing = tmp_path / "never-read.pgm"  # the config fails before the input is read
    assert main(["run", "--input", str(missing), "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in ("f_min", "f_max", "iterations"))
    assert not out.exists()
    # An iteration count past the float range is refused the same way.
    with pytest.raises(ValueError, match=message):
        BatParams(iterations=10**400)


@pytest.mark.parametrize(
    "line",
    [
        "f_min = -inf",
        "f_max = inf",
        "gamma = inf",
        "loudness = inf",
        pytest.param("f_min = -1e308\nf_max = 1e308", id="f_max - f_min = inf"),
    ],
)
def test_config_file_with_non_finite_bat_setting_fails_to_load(tmp_path, line):
    path = tmp_path / "bat.ini"
    path.write_text(f"[bat]\n{line}\n")
    with pytest.raises(ValueError, match="must be finite"):
        load_config(path)


def test_params_reject_negative_seed():
    with pytest.raises(ValueError, match="seed"):
        BatParams(seed=-1)
    assert BatParams(seed=0).seed == 0


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


def test_csv_row_count():
    lines = convergence_csv(_fake_state([1.0, 2.0, 2.0])).splitlines()
    assert len(lines) == 4
    assert lines[0] == "iteration,best_fitness"
    assert lines[1].startswith("1,")


def test_csv_six_significant_digits():
    rows = convergence_csv(_fake_state([1234.5678, 0.000123456789])).splitlines()[1:]
    assert rows[0] == "1,1234.57"
    assert rows[1] == "2,0.000123457"


def _csv_per_row(history):
    """convergence_csv as each row formatted on its own."""
    rows = "".join(f"{t},{value:.6g}\n" for t, value in enumerate(history, start=1))
    return "iteration,best_fitness\n" + rows


_RISING = [0.5 + k / 7 for k in range(40)]
_CSV_HISTORIES = {
    "one_value": [1234.5678] * 500,
    "steps": [v for v in (0.0, 3.25, 3.25000001, 1e-7, 812.345678) for _ in range(9)],
    "all_distinct": _RISING,
    "distinct_then_flat": _RISING + [_RISING[-1]] * 60,
    "signed_zeros": [0.0, -0.0, 0.0, -0.0, -0.0, 1.0, 0.0],
    "equal_after_rounding": [1.0000001, 1.0000002, 1.0000001, 1.0],
    "non_finite": [math.inf, -math.inf, math.nan, math.inf, math.nan],
    "numpy_scalars": list(np.float64([2.5, 2.5, 1e300, 2.5])),
    "empty": [],
}


@pytest.mark.parametrize("name", sorted(_CSV_HISTORIES))
def test_csv_equals_per_row_formatting(name):
    """Formatting each distinct score once writes the same bytes as
    formatting every row."""
    history = _CSV_HISTORIES[name]
    assert convergence_csv(_fake_state(history)) == _csv_per_row(history)


def test_csv_of_a_run_equals_per_row_formatting():
    img, _ = generate_phantom(PhantomSpec(64, 64, 16, 5, 20.0, 3))
    _, state = optimize_threshold(img, BatParams(population=10, iterations=60, seed=5))
    assert convergence_csv(state) == _csv_per_row(state.history)


def test_csv_round_trip():
    img, _ = generate_phantom(PhantomSpec(64, 64, 16, 5, 10.0, 1))
    _, state = optimize_threshold(
        img, BatParams(population=10, iterations=40, seed=2)
    )
    rows = list(csv.DictReader(io.StringIO(convergence_csv(state), newline="")))
    assert len(rows) == 40
    for i, row in enumerate(rows):
        assert int(row["iteration"]) == i + 1
        got = float(row["best_fitness"])
        want = state.history[i]
        assert got == pytest.approx(want, rel=1e-5)


# ---------------------------------------------------------------------------
# Pinned final state
# ---------------------------------------------------------------------------

def _pinned_table():
    """The Otsu table of the pinned runs' phantom."""
    img, _ = generate_phantom(PhantomSpec(64, 64, 16, 5, 20.0, 7))
    return between_class_variance(histogram(img))


_PINNED_PARAMS = {
    "default": {},
    "small": dict(population=6, iterations=80, alpha=0.6, r0=0.9, f_max=1.5),
}


def _sha(values):
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


def _state_record(state):
    return (
        _sha(state.positions),
        _sha(state.loudness),
        _sha(state.pulse_rate),
        _sha(state.history),
        repr(state.best_position),
        repr(state.best_fitness),
    )

# Taken before the bat read its draws from per-bat blocks, under numpy 2.4.6
# on Python 3.11: (sha256 of positions, loudness, pulse_rate, history as
# float64 bytes; repr of best_position, best_fitness).
_PINNED_STATES = {
    ("otsu", "default", 0): (
        "80c5e6ca9d27852f14cc1537e6984848bd2a78844b634a9059b597db14f4aefa",
        "363fdcf0ed7e1db2c7265da7d31fe39992567b3851ac79f8480aa889e8207733",
        "6b53acfafd6f8ec96ea3ffdf33be6bcd5f9a8ed3a2932a126f3eb8b963bd38d8",
        "37e2b21dfde8f75bd451e6cf7052dcbc4ee6e96739d11bc49333fb6acf44a2b1",
        "126.72168209279988",
        "5670.928323979844",
    ),
    ("otsu", "default", 5): (
        "62e9c0b31a816264e9eb52a1128cd9d3f367601cfcf6567b70a3c23d8d7e05f2",
        "620333bdea773d08b140578d28e3717d422388f41fcb861b6db08a3192755588",
        "76f417c698abf3a4447393dc4987988ab80ea163cff66636ab3c2250ff0ce846",
        "37e2b21dfde8f75bd451e6cf7052dcbc4ee6e96739d11bc49333fb6acf44a2b1",
        "113.20669799491256",
        "5670.928323979844",
    ),
    ("otsu", "default", 2024): (
        "a853e31b359d3c5e3e37b3c3b4ae696add077f731ce54b592320f134133fbfe8",
        "82492640e2940024d46a672d45d9d256f29500952f1bbc302c676064ea541a82",
        "2d07478c6287d6a94da913c1a7988c3c17557879853bfa5cb6286466bac36625",
        "73f8c5621c9b5b7f8557fc3f0063d564ce20e6cac21a440db6187464977b8a7c",
        "120.02459201169683",
        "5670.928323979844",
    ),
    ("otsu", "small", 0): (
        "751360845fe3a5fdc83f0ac1e3469e7fe7aac3f7dabc569fae2ccc4ec481dccf",
        "b74f4b63e36cae3a0b419c1a6654c8fe8639aa0fb0dfd3e3b9625951f169a279",
        "02c31034080ef67ca2f90fa5d365c98ed00e25700eb01665219add3b2f577002",
        "84084fc14a8d1d5c289f075c022d5685d4aa072ee7feced0e0081185a4d4eff5",
        "95.17297249833985",
        "5637.731316921514",
    ),
    ("otsu", "small", 5): (
        "87d1c7adec7550bf84c52b105ec4b6b8d70dc42a200e01344c6560622c7b714c",
        "662a2cab8fa5b52f92a34b10b59a8b0796a661115ff3b2b2d369b579d8ad3e4f",
        "92e954ce8bd892250a4a7ed634c40d167d1a7389268455d3bae0a3ac56a8761b",
        "1d9fd45d8c2ea2f6d986d99fed5b35f5a77a997d76db817dee0811b1b70323cd",
        "102.79521128423266",
        "5665.964584547178",
    ),
    ("otsu", "small", 2024): (
        "21c5a63a76e375f8d76dba05a02ebd73c9bb5553a27cd4876849d1e95689d1dd",
        "703e8858a633347cebf531d39053edd68b0eeb10134bbdcb261952da07a4b627",
        "3dfe368d7d4d4be277226427da128b3cd742f9fbeda504359e40c434323043c6",
        "3ea29366b9735f42e2f89d9758f4434ef045874ba0cb22992baf640f06671c8f",
        "162.905221514975",
        "5532.815423387138",
    ),
}


@pytest.mark.parametrize("fitness_name", ["otsu"])
@pytest.mark.parametrize("params_name", sorted(_PINNED_PARAMS))
@pytest.mark.parametrize("seed", [0, 5, 2024])
def test_final_state_is_pinned(fitness_name, params_name, seed):
    """The whole final state matches a recorded value bit for bit.

    ``convergence.csv`` keeps six significant digits, so it cannot see a
    one-ulp drift in the loop; these hashes can.
    """
    params = BatParams(seed=seed, **_PINNED_PARAMS[params_name])
    state = bat_optimize(params, _pinned_table())
    assert len(state.history) == params.iterations
    assert _state_record(state) == _PINNED_STATES[(fitness_name, params_name, seed)]
    assert len(state.history) == params.iterations  # forming the population kept the history


@pytest.mark.parametrize("seed", [0, 1, 99, 2**40 + 3])
def test_block_draws_equal_single_uniform_draws(seed):
    """One ``random(m)`` block is the same stream as m scalar draws.

    The bat draws each stream as one block and maps a draw d to
    ``uniform()`` as d and to ``uniform(-1.0, 1.0)`` as -1.0 + 2.0*d.
    This checks that identity bit for bit on spawned PCG64 streams, with
    the two kinds of call mixed in an irregular order.
    """
    m = 257
    pattern = np.random.default_rng(seed).random(m) < 0.3  # True: uniform(-1, 1)
    children = np.random.SeedSequence(seed).spawn(4)
    for child in children:
        block = np.random.Generator(np.random.PCG64(child)).random(m).tolist()
        single = np.random.Generator(np.random.PCG64(child))
        want = [-1.0 + 2.0 * d if wide else d for d, wide in zip(block, pattern)]
        got = [single.uniform(-1.0, 1.0) if wide else single.uniform() for wide in pattern]
        assert np.array(got).tobytes() == np.array(want).tobytes()


# ---------------------------------------------------------------------------
# Differential test against the one-candidate-at-a-time oracle
# ---------------------------------------------------------------------------

def _state_bytes(state):
    arrays = (state.positions, state.loudness, state.pulse_rate, state.history)
    return tuple(np.asarray(a, dtype=np.float64).tobytes() for a in arrays) + (
        repr(state.best_position),
        repr(state.best_fitness),
    )


@st.composite
def bat_params(draw):
    f_min = draw(st.floats(-4.0, 4.0))
    return BatParams(
        population=draw(st.integers(2, 30)),
        iterations=draw(st.integers(1, 300)),
        f_min=f_min,
        f_max=f_min + draw(st.floats(0.0, 6.0)),
        alpha=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        gamma=draw(st.floats(1e-3, 10.0)),
        a0=draw(st.floats(1e-3, 2.0)),
        r0=draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


@st.composite
def score_tables(draw):
    """256-entry score tables: Otsu tables of drawn images, constants,
    capped steps with many ties, and arbitrary finite floats."""
    kind = draw(st.sampled_from(["otsu", "constant", "steps", "floats"]))
    if kind == "otsu":
        # A few intensity clusters, so the table has plateaus and a clear peak.
        centers = draw(st.lists(st.integers(0, 255), min_size=1, max_size=4))
        values = draw(st.lists(st.sampled_from(centers), min_size=1, max_size=64))
        jitter = draw(st.lists(st.integers(-20, 20), min_size=len(values), max_size=len(values)))
        img = np.clip(np.add(values, jitter), 0, 255).astype(np.uint8).reshape(1, -1)
        return between_class_variance(histogram(img))
    if kind == "constant":
        return np.full(256, draw(st.floats(-1e6, 1e6)))
    if kind == "steps":
        # Plateaus a few intensities wide, capped: many exact ties.  The
        # highest step is at 255 when rising, at 0 when falling.
        width = draw(st.sampled_from([0.5, 1.0, 7.0, 64.0, 300.0]))
        cap = draw(st.sampled_from([0.0, 1.0, 3.0, 1e9]))
        sign = draw(st.sampled_from([1.0, -1.0]))
        return sign * np.minimum(np.floor(_THRESHOLDS / width), cap)
    return draw(arrays(np.float64, 256, elements=st.floats(allow_nan=False, allow_infinity=False)))


# 300 examples, or more under a profile that asks for more (the "ci"
# profile of tests/conftest.py asks for 2000).
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(params=bat_params(), table=score_tables())
def test_bat_matches_oracle_bit_for_bit(params, table):
    got = bat_optimize(params, table)
    again = bat_optimize(params, table)  # reads the cached draw tables
    want = oracle_bat(params, table)
    assert _state_bytes(got) == _state_bytes(want)
    assert _state_bytes(again) == _state_bytes(want)


def test_interleaved_parameter_sets_each_read_their_own_draw_tables():
    """The one-entry draw-table cache never serves one call another's rows.

    Seeds 0 -> 5 -> 0, then seed 0 with only r0, only the iterations or
    only the population changed, each between two default runs: every
    state equals its pin or, where none is pinned, the oracle's.  r0 is
    not part of the key: a run that changes only r0 reads the cached rows.
    """
    table = _pinned_table()

    def pinned(params_name, seed):
        params = BatParams(seed=seed, **_PINNED_PARAMS[params_name])
        return params, _state_record, _PINNED_STATES[("otsu", params_name, seed)]

    def oracle(seed, **changed):
        params = BatParams(seed=seed, **changed)
        return params, _state_bytes, _state_bytes(oracle_bat(params, table))

    runs = [
        pinned("default", 0),
        pinned("default", 5),
        pinned("default", 0),
        oracle(0, r0=0.9),
        pinned("default", 0),
        oracle(0, iterations=120),
        pinned("default", 0),
        oracle(0, population=7),
        pinned("small", 0),
        pinned("small", 5),
        pinned("default", 0),
    ]
    for params, record, expected in runs:
        assert record(bat_optimize(params, table)) == expected, params
    hits = _draw_tables.cache_info().hits
    params, record, expected = oracle(0, r0=0.1)
    assert record(bat_optimize(params, table)) == expected
    assert _draw_tables.cache_info().hits == hits + 1


def test_cached_draw_tables_are_read_only_and_never_rewritten():
    params = BatParams(population=6, iterations=80, r0=0.9, seed=11)
    state = bat_optimize(params, _pinned_table())
    assert state.pulse_rate.tolist() != [params.r0] * 6  # some bat accepted a move
    draws = _draw_tables(11, 6, 80)
    assert draws.tobytes() == _draw_tables.__wrapped__(11, 6, 80).tobytes()
    assert not draws.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        draws[0] = 1


def test_tables_over_8_mib_are_built_per_call_and_not_cached():
    """A run whose draw rows exceed 8 MiB leaves the cached entry alone.

    The rows take population * (1 + 4 * iterations) * 8 bytes: 0.32 MB at
    the defaults, just over 8 MiB at 20 bats and 13,107 iterations and
    just under it at 13,106.
    """
    table = _pinned_table()
    default = BatParams()
    large = BatParams(iterations=13107, seed=1)
    pin = _PINNED_STATES[("otsu", "default", 0)]
    assert _state_record(bat_optimize(default, table)) == pin
    before = _draw_tables.cache_info()
    got = bat_optimize(large, table)
    assert _state_bytes(got) == _state_bytes(oracle_bat(large, table))
    after = _draw_tables.cache_info()
    assert (after.hits, after.misses, after.currsize) == (before.hits, before.misses, 1)
    assert _state_record(bat_optimize(default, table)) == pin
    assert _draw_tables.cache_info().hits == before.hits + 1
    below = BatParams(iterations=13106, seed=1)
    assert bat_optimize(below, table).history == bat_optimize(below, table).history
    after = _draw_tables.cache_info()
    assert (after.hits, after.misses) == (before.hits + 2, before.misses + 1)


# ---------------------------------------------------------------------------
# The settled run
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("size", [64, 128, 256])
@pytest.mark.parametrize("sigma", [0.0, 20.0, 60.0])
def test_optimize_threshold_equals_the_oracle_on_phantoms(size, sigma):
    """``optimize_threshold`` ends the run once every bat has the Otsu
    table's maximum; its state is the oracle's, which scores every
    candidate to the last iteration, bit for bit."""
    img, _ = generate_phantom(PhantomSpec(size, size, 32, 10, sigma, 4))
    table = between_class_variance(histogram(img))
    for seed in (0, 1, 7):
        params = BatParams(seed=seed)
        threshold, state = optimize_threshold(img, params)
        want = oracle_bat(params, table)
        # The answer, read before the population forms.
        assert (threshold, state.history) == (math.floor(want.best_position), want.history)
        assert _state_bytes(state) == _state_bytes(want)
        assert threshold == math.floor(want.best_position)


def test_constant_image_settles_before_the_first_iteration():
    """Every threshold of a constant image scores 0, the table's maximum:
    the initial positions are the only ones scored, and the state is the
    oracle's."""
    img = np.full((16, 16), 77, dtype=np.uint8)
    params = BatParams(seed=3)
    _, state = optimize_threshold(img, params)
    assert state.evaluations == params.population
    assert _state_bytes(state) == _state_bytes(oracle_bat(params, np.zeros(256)))
    assert state.history == [0.0] * params.iterations


def test_settled_tail_scores_no_candidate():
    """On a phantom every bat reaches the table's maximum within a few
    dozen iterations; after that the run scores nothing."""
    img, _ = generate_phantom(PhantomSpec(128, 128, 32, 10, 20.0, 1))
    params = BatParams(seed=0)
    _, state = optimize_threshold(img, params)
    # The first stretch builds 8 iterations of candidates whatever follows.
    assert params.population * 9 <= state.evaluations < params.population * 60
    want = oracle_bat(params, between_class_variance(histogram(img)))
    assert _state_bytes(state) == _state_bytes(want)


# ---------------------------------------------------------------------------
# The returned state: answer final, population formed on first read
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "copier", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_an_unsettled_state_survives_copying(copier):
    """A copy of a state whose population is not yet formed forms it
    first: the copy and the original are the oracle's final state."""
    img, _ = generate_phantom(PhantomSpec(128, 128, 32, 10, 20.0, 1))
    params = BatParams(seed=0)
    _, state = optimize_threshold(img, params)
    assert type(state) is not BatState  # the run stopped with its answer
    copied = copier(state)
    assert type(copied) is BatState and type(state) is BatState
    want = _state_bytes(oracle_bat(params, between_class_variance(histogram(img))))
    assert _state_bytes(copied) == want
    assert _state_bytes(state) == want
    assert copied.evaluations == state.evaluations


def test_a_returned_state_holds_no_stretch_and_no_per_call_rows():
    """A run whose draw rows are built for one call forms its population
    before it returns, so it holds none of its 8.4 MB of rows; with the
    cached rows, a state whose population is not yet formed holds the
    per-bat loop state and the score table, not a stretch's arrays."""
    table = _pinned_table()
    default = BatParams()
    bat_optimize(default, table)  # caches the default draw rows
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        large = bat_optimize(BatParams(iterations=13107, seed=1), table)
        assert type(large) is BatState
        assert tracemalloc.get_traced_memory()[0] - base < 1 << 20
        del large
        base = tracemalloc.get_traced_memory()[0]
        state = bat_optimize(default, table)
        assert type(state) is not BatState
        assert tracemalloc.get_traced_memory()[0] - base < 16 << 10
    finally:
        tracemalloc.stop()
    assert repr(state).startswith("BatState(positions=array(")  # forms the population
    assert type(state) is BatState
    assert _state_record(state) == _PINNED_STATES[("otsu", "default", 0)]
