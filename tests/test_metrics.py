import math

import numpy as np
import pytest

from lcseg.metrics import (
    ConfusionCounts,
    RocCurve,
    confusion,
    full_report,
    mse_psnr,
    precision_recall_f,
    rand_index,
    report_csv,
    report_table,
    roc_csv,
    roc_curve_from_scores,
    roc_sweep,
    ssim,
)


def oracle_rand_index(a, b):
    """O(n^2) pair enumeration (test oracle)."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    n = a.size
    agree = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = a[i] == a[j]
            same_b = b[i] == b[j]
            agree += same_a == same_b
    return agree / (n * (n - 1) / 2)


# ---------------------------------------------------------------------------
# Confusion
# ---------------------------------------------------------------------------

def test_confusion_perfect_prediction():
    t = np.array([[True, False], [True, False]])
    c = confusion(t, t)
    assert c.fp == 0 and c.fn == 0
    assert c.tp == 2 and c.tn == 2


def test_confusion_inverted_prediction():
    t = np.array([[True, False], [True, False]])
    c = confusion(~t, t)
    assert c.tp == 0 and c.tn == 0
    assert c.fp == 2 and c.fn == 2


def test_confusion_enumerated_2x2():
    pred = np.array([[1, 1], [0, 0]], dtype=bool)
    truth = np.array([[1, 0], [1, 0]], dtype=bool)
    c = confusion(pred, truth)
    assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 1)


def test_confusion_counts_sum_to_pixels():
    rng = np.random.default_rng(0)
    pred = rng.uniform(size=(13, 7)) < 0.3
    truth = rng.uniform(size=(13, 7)) < 0.6
    assert confusion(pred, truth).total == 91


def test_confusion_shape_mismatch():
    with pytest.raises(ValueError):
        confusion(np.zeros((2, 2), bool), np.zeros((3, 2), bool))


# ---------------------------------------------------------------------------
# MSE / PSNR
# ---------------------------------------------------------------------------

def test_mse_psnr_identity():
    img = np.arange(16, dtype=np.uint8).reshape(4, 4)
    mse, psnr = mse_psnr(img, img)
    assert mse == 0.0
    assert math.isinf(psnr)


def test_mse_psnr_offset_by_one():
    a = np.full((5, 5), 100, dtype=np.uint8)
    mse, psnr = mse_psnr(a, a + 1)
    assert mse == pytest.approx(1.0, abs=1e-12)
    assert psnr == pytest.approx(10.0 * math.log10(65025.0), abs=1e-6)
    assert psnr == pytest.approx(48.1308, abs=1e-3)


def test_psnr_of_mse_008():
    # standard formula at mse 0.08 gives ~59.10 dB (not the 58.65 pairing
    # sometimes quoted alongside it; both are reported independently here)
    want = 10.0 * math.log10(65025.0 / 0.08)
    assert want == pytest.approx(59.0999, abs=1e-3)


# ---------------------------------------------------------------------------
# Precision / recall / F
# ---------------------------------------------------------------------------

def test_prf_perfect():
    assert precision_recall_f(ConfusionCounts(10, 0, 0, 0)) == (1.0, 1.0, 1.0)


def test_prf_degenerate_zero_convention():
    assert precision_recall_f(ConfusionCounts(0, 0, 5, 0)) == (0.0, 0.0, 0.0)


def test_prf_half():
    p, r, f = precision_recall_f(ConfusionCounts(1, 1, 0, 1))
    assert (p, r, f) == (0.5, 0.5, 0.5)


# ---------------------------------------------------------------------------
# Rand index
# ---------------------------------------------------------------------------

def test_rand_index_identical():
    labels = np.array([[1, 2], [2, 3]])
    assert rand_index(labels, labels) == 1.0


def test_rand_index_three_element_example():
    a = np.array([1, 1, 2])
    b = np.array([1, 2, 2])
    assert rand_index(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert oracle_rand_index(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_rand_index_matches_pair_oracle_on_random_maps():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = rng.integers(0, 4, size=(6, 6))
        b = rng.integers(0, 4, size=(6, 6))
        assert rand_index(a, b) == pytest.approx(oracle_rand_index(a, b), abs=1e-12)


def test_rand_index_on_binary_masks():
    rng = np.random.default_rng(3)
    a = rng.uniform(size=(5, 5)) < 0.5
    b = rng.uniform(size=(5, 5)) < 0.5
    assert rand_index(a, b) == pytest.approx(oracle_rand_index(a, b), abs=1e-12)


def test_rand_index_needs_two_pixels():
    with pytest.raises(ValueError):
        rand_index(np.array([1]), np.array([1]))


# ---------------------------------------------------------------------------
# SSIM
# ---------------------------------------------------------------------------

def test_ssim_self_similarity_is_one():
    rng = np.random.default_rng(4)
    img = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)


def test_ssim_constant_pair_closed_form():
    a = np.full((16, 16), 100, dtype=np.uint8)
    b = np.full((16, 16), 150, dtype=np.uint8)
    c1 = (0.01 * 255.0) ** 2
    want = (2.0 * 100.0 * 150.0 + c1) / (100.0 ** 2 + 150.0 ** 2 + c1)
    assert want == pytest.approx(0.923093, abs=1e-6)
    assert ssim(a, b) == pytest.approx(want, abs=1e-9)


def test_ssim_symmetry():
    rng = np.random.default_rng(5)
    a = rng.integers(0, 256, size=(20, 20), dtype=np.uint8)
    b = rng.integers(0, 256, size=(20, 20), dtype=np.uint8)
    assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)


def test_ssim_range():
    rng = np.random.default_rng(6)
    a = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    b = 255 - a
    value = ssim(a, b)
    assert -1.0 <= value <= 1.0


def oracle_ssim(a, b):
    """Mean SSIM with scalar loops and explicit mirror indexing (test oracle).

    The 11-tap Gaussian (sigma 1.5) runs in tap order, along rows first,
    then along columns, over x, y, x*x, y*y and x*y.
    """
    x = np.asarray(a, dtype=np.float64).tolist()
    y = np.asarray(b, dtype=np.float64).tolist()
    h, w = len(x), len(x[0])
    g = [math.exp(-(k * k) / (2.0 * 1.5 * 1.5)) for k in range(-5, 6)]
    taps = [v / sum(g) for v in g]

    def mirror(i, n):
        if i < 0:
            return -i
        if i > n - 1:
            return 2 * (n - 1) - i
        return i

    def smooth(plane):
        rows = [[0.0] * w for _ in range(h)]
        for r in range(h):
            for c in range(w):
                acc = 0.0
                for k, t in enumerate(taps):
                    acc += t * plane[mirror(r + k - 5, h)][c]
                rows[r][c] = acc
        out = [[0.0] * w for _ in range(h)]
        for r in range(h):
            for c in range(w):
                acc = 0.0
                for k, t in enumerate(taps):
                    acc += t * rows[r][mirror(c + k - 5, w)]
                out[r][c] = acc
        return out

    def product(p, q):
        return [[p[r][c] * q[r][c] for c in range(w)] for r in range(h)]

    mx, my = smooth(x), smooth(y)
    fxx, fyy, fxy = smooth(product(x, x)), smooth(product(y, y)), smooth(product(x, y))
    c1 = (0.01 * 255.0) ** 2
    c2 = (0.03 * 255.0) ** 2
    total = 0.0
    for r in range(h):
        for c in range(w):
            ux, uy = mx[r][c], my[r][c]
            sxx = fxx[r][c] - ux * ux
            syy = fyy[r][c] - uy * uy
            sxy = fxy[r][c] - ux * uy
            num = (2.0 * ux * uy + c1) * (2.0 * sxy + c2)
            den = (ux * ux + uy * uy + c1) * (sxx + syy + c2)
            total += num / den
    return total / (h * w)


@pytest.mark.parametrize("shape", [(11, 11), (12, 15), (16, 16)])
def test_ssim_matches_scalar_oracle(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    for _ in range(3):
        a = rng.integers(0, 256, size=shape, dtype=np.uint8)
        noise = rng.integers(-40, 41, size=shape)
        b = np.clip(a + noise, 0, 255).astype(np.uint8)
        c = rng.integers(0, 256, size=shape, dtype=np.uint8)
        for other in (b, c):
            assert ssim(a, other) == pytest.approx(oracle_ssim(a, other), abs=1e-12)


def test_ssim_rejects_small_images():
    with pytest.raises(ValueError):
        ssim(np.zeros((10, 10), np.uint8), np.zeros((10, 10), np.uint8))


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------

def test_full_report_perfect_case():
    rng = np.random.default_rng(7)
    truth = rng.uniform(size=(16, 16)) < 0.5
    img = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    r = full_report(truth, truth, img, img)
    assert r.sensitivity == 100.0
    assert r.specificity == 100.0
    assert r.accuracy == 100.0
    assert r.rand_index == 1.0
    assert r.f_measure == 1.0
    assert r.ssim == pytest.approx(100.0, abs=1e-9)
    assert r.mse == 0.0
    assert math.isinf(r.psnr)


def test_full_report_inverted_masks():
    truth = np.zeros((16, 16), dtype=bool)
    truth[:8] = True
    img = np.zeros((16, 16), dtype=np.uint8)
    r = full_report(~truth, truth, img, img)
    assert r.sensitivity == 0.0
    assert r.specificity == 0.0


def test_full_report_rand_index_equals_rand_index():
    # Masks need not match the image pair's shape; 11x11 is SSIM's minimum.
    rng = np.random.default_rng(9)
    img = np.zeros((11, 11), dtype=np.uint8)
    for i in range(300):
        shape = (int(rng.integers(1, 12)), int(rng.integers(2, 12)))
        pred = rng.uniform(size=shape) < rng.uniform()
        truth = rng.uniform(size=shape) < rng.uniform()
        if i % 3 == 1:
            pred[:] = True
        elif i % 3 == 2:
            truth[:] = False
        got = full_report(pred, truth, img, img).rand_index
        assert got == rand_index(pred, truth)


def test_full_report_rand_index_needs_two_pixels():
    one = np.ones((1, 1), dtype=bool)
    img = np.zeros((11, 11), dtype=np.uint8)
    with pytest.raises(ValueError, match="at least 2 pixels"):
        full_report(one, one, img, img)


def test_reference_profile_confusion_fixture():
    # prevalence implied by accuracy = p*sens + (1-p)*spec with
    # sens=100, spec=98.59, accuracy=99.291 is p ~ 0.497; an integer
    # fixture with that balance reproduces all three numbers
    c = ConfusionCounts(tp=98872, fp=1410, tn=98590, fn=0)
    assert c.sensitivity == 100.0
    assert c.specificity == pytest.approx(98.59, abs=1e-9)
    assert c.accuracy == pytest.approx(99.291, abs=5e-4)
    p = (99.291 - 98.59) / (100.0 - 98.59)
    assert p == pytest.approx(0.497, abs=5e-4)


def test_report_serialization():
    rng = np.random.default_rng(8)
    truth = rng.uniform(size=(16, 16)) < 0.5
    img = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    r = full_report(truth, truth, img, img)
    csv_text = report_csv(r)
    lines = csv_text.splitlines()
    assert lines[0] == (
        "psnr,mse,f_measure,rand_index,sensitivity,specificity,ssim,accuracy"
    )
    assert lines[1].split(",")[0] == "inf"
    table = report_table(r)
    rows = table.splitlines()
    assert rows[0].startswith("PSNR")
    assert rows[-1].startswith("Accuracy")
    assert len(rows) == 8


# ---------------------------------------------------------------------------
# ROC
# ---------------------------------------------------------------------------

def oracle_rates(score, truth):
    """(fpr, tpr) of score >= t for t = 0..255, by plain counting (test oracle)."""
    score = np.asarray(score)
    truth = np.asarray(truth, dtype=bool)
    pos = int(truth.sum())
    neg = truth.size - pos
    rates = []
    for t in range(256):
        pred = score >= t
        tp = int((pred & truth).sum())
        fp = int((pred & ~truth).sum())
        rates.append((fp / neg if neg else 0.0, tp / pos if pos else 0.0))
    return rates


def oracle_roc(score, truth):
    """Sorted operating points plus anchors, and their trapezoidal AUC."""
    pts = sorted(oracle_rates(score, truth) + [(0.0, 0.0), (1.0, 1.0)])
    auc = sum(
        (x1 - x0) * (y0 + y1) / 2.0 for (x0, y0), (x1, y1) in zip(pts, pts[1:])
    )
    return pts, auc


def test_roc_perfect_separator():
    truth = np.zeros((8, 8), dtype=bool)
    truth[:4] = True
    score = truth.astype(np.uint8) * 255
    curve = roc_curve_from_scores(score, truth)
    assert curve.auc == pytest.approx(1.0, abs=1e-12)


def test_roc_constant_score_is_diagonal():
    rng = np.random.default_rng(9)
    truth = rng.uniform(size=(8, 8)) < 0.5
    score = np.full((8, 8), 77, dtype=np.uint8)
    curve = roc_curve_from_scores(score, truth)
    assert curve.auc == pytest.approx(0.5, abs=1e-12)


def test_roc_matches_counting_oracle():
    rng = np.random.default_rng(10)
    truth = rng.uniform(size=(12, 12)) < 0.4
    score = rng.integers(0, 256, size=(12, 12), dtype=np.uint8)
    curve = roc_curve_from_scores(score, truth)
    want_pts, want_auc = oracle_roc(score, truth)
    assert curve.auc == pytest.approx(want_auc, abs=1e-12)
    assert list(curve.points) == [
        (pytest.approx(x, abs=1e-12), pytest.approx(y, abs=1e-12))
        for x, y in want_pts
    ]


def test_roc_fpr_non_decreasing():
    rng = np.random.default_rng(11)
    truth = rng.uniform(size=(10, 10)) < 0.5
    score = rng.integers(0, 256, size=(10, 10), dtype=np.uint8)
    curve = roc_curve_from_scores(score, truth)
    fprs = [p[0] for p in curve.points]
    assert fprs == sorted(fprs)


def test_roc_degenerate_truth():
    truth = np.zeros((6, 6), dtype=bool)
    score = np.arange(36, dtype=np.uint8).reshape(6, 6)
    curve = roc_curve_from_scores(score, truth)
    assert all(p[1] == 0.0 for p in curve.points if p != (1.0, 1.0))
    assert 0.0 <= curve.auc <= 1.0


def test_roc_sweep_returns_both_curves():
    rng = np.random.default_rng(12)
    truth = rng.uniform(size=(9, 9)) < 0.5
    score = rng.integers(0, 256, size=(9, 9), dtype=np.uint8)
    base = rng.integers(0, 256, size=(9, 9), dtype=np.uint8)
    opt, baseline = roc_sweep(score, truth, base)
    assert isinstance(opt, RocCurve)
    assert opt.auc == roc_curve_from_scores(score, truth).auc
    assert baseline.auc == roc_curve_from_scores(base, truth).auc


def test_roc_csv_format():
    rng = np.random.default_rng(13)
    truth = rng.uniform(size=(8, 8)) < 0.5
    score = rng.integers(0, 256, size=(8, 8), dtype=np.uint8)
    curve = roc_curve_from_scores(score, truth)
    text = roc_csv(curve)
    lines = text.splitlines()
    assert lines[0] == "threshold,fpr,tpr"
    assert len(lines) == 1 + 256 + 1
    assert lines[-1].startswith("# auc=")
    assert lines[1].startswith("0,")
    assert lines[256].startswith("255,")
    # Rows are in sweep order, each the oracle's counting rates.
    for t, (fpr, tpr) in enumerate(oracle_rates(score, truth)):
        assert lines[1 + t] == f"{t},{fpr:.6g},{tpr:.6g}"
