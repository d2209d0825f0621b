"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-
criterion lines and timings.
"""

import math
import time

import numpy as np
import pytest

from lcseg.bat import BatParams, bat_optimize, between_class_variance
from lcseg.config import PipelineConfig
from lcseg.histeq import equalize, histogram
from lcseg.image import PhantomSpec, generate_phantom
from lcseg.metrics import (
    ConfusionCounts,
    confusion,
    mse_psnr,
    rand_index,
    roc_sweep,
    ssim,
)
from lcseg.pipeline import run_pipeline, write_outputs
from lcseg.wavelet import enhance_scales, iuwt_decompose, iuwt_reconstruct
from lcseg.watershed import watershed_segment

from test_histeq import oracle_equalize
from test_metrics import oracle_rand_index
from test_watershed import TWO_PIT, TWO_PIT_FRAME, TWO_PIT_LABELS, oracle_cut


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {name} ({detail})")
    assert ok, f"criterion {num}: {name} ({detail})"


def test_criterion_1_iuwt_perfect_reconstruction():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    worst = 0.0
    for i in range(200):
        img = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
        levels = 1 + i % 4
        err = float(np.abs(iuwt_reconstruct(iuwt_decompose(img, levels)) - img).max())
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(1, "IUWT perfect reconstruction", ok,
            f"max err {worst:.3g}, {elapsed:.2f}s")


def test_criterion_2_bat_vs_exhaustive_oracle():
    start = time.perf_counter()
    hits = 0
    monotone = 0
    runs = 50
    for i in range(runs):
        sigma = (0.0, 10.0, 20.0)[i % 3]
        img, _ = generate_phantom(PhantomSpec(128, 128, 32, 10, sigma, 1000 + i))
        table = between_class_variance(histogram(img))
        exhaustive_max = float(table.max())
        state = bat_optimize(BatParams(population=20, iterations=500, seed=i), table)
        hits += state.best_fitness >= exhaustive_max - 1e-12
        monotone += all(
            a <= b for a, b in zip(state.history, state.history[1:])
        )
    elapsed = time.perf_counter() - start
    ok = hits >= 0.95 * runs and monotone == runs and elapsed < 60.0
    _report(2, "bat attains exhaustive Otsu maximum", ok,
            f"{hits}/{runs} optimal, {monotone}/{runs} monotone, {elapsed:.1f}s")


def test_criterion_3_histogram_equalization_oracle():
    rng = np.random.default_rng(300)
    exact = 0
    for _ in range(100):
        img = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        exact += np.array_equal(equalize(img), oracle_equalize(img))
    ok = exact == 100
    _report(3, "equalization matches brute-force CDF oracle", ok, f"{exact}/100 exact")


def test_criterion_4_watershed_hand_cut_oracle():
    matches = 0
    cases = 0

    got = watershed_segment(TWO_PIT, TWO_PIT_FRAME, 0.0)
    cases += 1
    matches += np.array_equal(got, TWO_PIT_LABELS) and np.array_equal(
        oracle_cut(TWO_PIT, TWO_PIT_FRAME), TWO_PIT_LABELS
    )

    rng = np.random.default_rng(400)
    for _ in range(10):
        surf = rng.integers(0, 5, size=(8, 8)).astype(float)
        frame = surf.astype(np.uint8)
        cases += 1
        matches += np.array_equal(
            watershed_segment(surf, frame, 0.0), oracle_cut(surf, frame)
        )
    ok = matches == cases
    _report(4, "watershed matches the marker-rooted minimum spanning forest", ok,
            f"{matches}/{cases} label-for-label")


def test_criterion_5_metrics_oracles():
    rng = np.random.default_rng(500)
    ri_exact = 0
    for _ in range(100):
        a = rng.integers(0, 4, size=(6, 6))
        b = rng.integers(0, 4, size=(6, 6))
        ri_exact += math.isclose(
            rand_index(a, b), oracle_rand_index(a, b), abs_tol=1e-12
        )

    img = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    ssim_self = ssim(img, img)

    base = np.full((8, 8), 100, dtype=np.uint8)
    mse0, psnr0 = mse_psnr(base, base)
    mse1, psnr1 = mse_psnr(base, base + 1)
    closed_forms = (
        mse0 == 0.0
        and math.isinf(psnr0)
        and abs(mse1 - 1.0) < 1e-6
        and abs(psnr1 - 10.0 * math.log10(65025.0)) < 1e-6
    )

    pred = np.array([[1, 1], [0, 0]], dtype=bool)
    truth = np.array([[1, 0], [1, 0]], dtype=bool)
    c = confusion(pred, truth)
    fixtures = (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 1)
    table1 = ConfusionCounts(tp=98872, fp=1410, tn=98590, fn=0)
    fixtures = fixtures and table1.sensitivity == 100.0
    fixtures = fixtures and abs(table1.specificity - 98.59) < 1e-9
    fixtures = fixtures and abs(table1.accuracy - 99.291) < 5e-4

    ok = ri_exact == 100 and abs(ssim_self - 1.0) < 1e-12 and closed_forms and fixtures
    _report(5, "metrics oracles", ok,
            f"rand {ri_exact}/100, ssim(a,a)={ssim_self}, closed forms "
            f"{'ok' if closed_forms else 'bad'}, fixtures "
            f"{'ok' if fixtures else 'bad'}")


def test_criterion_6_end_to_end_phantom_accuracy():
    start = time.perf_counter()
    cfg = PipelineConfig()

    img, truth = generate_phantom(PhantomSpec(256, 256, 128, 96, 0.0, 5))
    clean = run_pipeline(img, truth, cfg)
    clean_acc = clean.report.accuracy
    clean_sens = clean.report.sensitivity

    img20, truth20 = generate_phantom(PhantomSpec(256, 256, 128, 40, 20.0, 5))
    noisy = run_pipeline(img20, truth20, cfg.with_seed(5))
    noisy_acc = noisy.report.accuracy

    elapsed = time.perf_counter() - start
    ok = (
        clean_acc >= 99.0
        and clean_sens >= 99.0
        and noisy_acc >= 90.0
        and elapsed < 120.0
    )
    _report(6, "end-to-end phantom accuracy", ok,
            f"clean acc {clean_acc:.2f}%, sens {clean_sens:.2f}%, "
            f"sigma20 acc {noisy_acc:.2f}%, {elapsed:.1f}s")


def test_criterion_7_roc_dominance():
    wins = 0
    runs = 20
    cfg = PipelineConfig()
    for seed in range(runs):
        img, truth = generate_phantom(PhantomSpec(256, 256, 128, 40, 20.0, seed))
        enhanced = enhance_scales(img, cfg.wavelet_levels, cfg.kept_scales)
        optimized, baseline = roc_sweep(enhanced, truth, img)
        wins += optimized.auc >= baseline.auc
    ok = wins >= 0.8 * runs
    _report(7, "optimized-pipeline AUC dominates baseline", ok, f"{wins}/{runs} runs")


def test_criterion_8_pipeline_determinism(tmp_path):
    img, truth = generate_phantom(PhantomSpec(128, 128, 32, 10, 10.0, 8))
    cfg = PipelineConfig().with_seed(8)
    dirs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        result = run_pipeline(img, truth, cfg)
        write_outputs(result, out, dump=True)
        dirs.append(out)
    names = sorted(p.name for p in dirs[0].iterdir())
    same_names = names == sorted(p.name for p in dirs[1].iterdir())
    identical = same_names and all(
        (dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes() for n in names
    )
    _report(8, "byte-identical runs under fixed seed", identical,
            f"{len(names)} files compared")
