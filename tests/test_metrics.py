import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcseg.image import separable_filter
from lcseg.metrics import (
    _SSIM_C1,
    _SSIM_C2,
    _SSIM_STRIP_BYTES,
    _SSIM_TAPS,
    _ssim_strip_bounds,
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


def test_mse_psnr_rejects_fractional_float_images():
    # Truncating 0.9 to 0 would report the pair identical: (0.0, inf).
    with pytest.raises(ValueError, match="gray image values must be whole numbers"):
        mse_psnr(np.full((4, 4), 0.9), np.zeros((4, 4)))


@st.composite
def gray_pairs(draw):
    """Two uint8 frames of one shape, 1x1 up to 40x40; a third of them are
    all 0 against all 255, the largest squared difference."""
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    if draw(st.integers(0, 2)) == 0:
        return np.zeros(shape, np.uint8), np.full(shape, 255, np.uint8)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return tuple(rng.integers(0, 256, size=shape, dtype=np.uint8) for _ in range(2))


# 300 examples, or more under a profile that asks for more.
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(pair=gray_pairs())
def test_mse_equals_float_mean_of_squares_bit_for_bit(pair):
    x, y = pair
    mse, _ = mse_psnr(x, y)
    want = float(np.mean((x.astype(float) - y) ** 2))
    assert mse == want
    assert mse_psnr(y, x)[0] == want


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


def test_rand_index_rejects_equal_size_different_shape():
    eye = np.eye(4, dtype=bool)
    with pytest.raises(ValueError, match="dimension mismatch"):
        rand_index(eye, eye.reshape(2, 8))


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

    The 11-tap Gaussian (sigma 1.5) runs down the columns, then along the
    rows.  The variances and the covariance are centred in both passes,
    so they lose no digits to cancellation when a window is near
    constant.  The first pass takes each column line's means and its
    second moments about them.  The second pass combines 11 lines by the
    law of total covariance: the weighted mean of the lines' own moments
    plus the moments of the line means about the window's means.
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

    def window(lines):
        """(mean x, mean y, sxx, syy, sxy) of 11 lines, each given as the same."""
        mx = sum(t * m[0] for t, m in zip(taps, lines))
        my = sum(t * m[1] for t, m in zip(taps, lines))
        sxx = sum(t * (m[2] + (m[0] - mx) * (m[0] - mx)) for t, m in zip(taps, lines))
        syy = sum(t * (m[3] + (m[1] - my) * (m[1] - my)) for t, m in zip(taps, lines))
        sxy = sum(t * (m[4] + (m[0] - mx) * (m[1] - my)) for t, m in zip(taps, lines))
        return mx, my, sxx, syy, sxy

    # A pixel is a line of one sample, with no spread of its own.
    pixels = [[(x[r][c], y[r][c], 0.0, 0.0, 0.0) for c in range(w)] for r in range(h)]
    columns = [
        [window([pixels[mirror(r + k - 5, h)][c] for k in range(11)]) for c in range(w)]
        for r in range(h)
    ]
    windows = [window([row[mirror(c + k - 5, w)] for k in range(11)]) for row in columns for c in range(w)]
    c1 = (0.01 * 255.0) ** 2
    c2 = (0.03 * 255.0) ** 2
    total = 0.0
    for ux, uy, sxx, syy, sxy in windows:
        num = (2.0 * ux * uy + c1) * (2.0 * sxy + c2)
        den = (ux * ux + uy * uy + c1) * (sxx + syy + c2)
        total += num / den
    return total / (h * w)


def test_ssim_oracle_is_exact_on_a_constant_pair():
    # Both variances and the covariance are 0, so SSIM is the luminance term
    # alone.  The uncentred oracle read 1.2e-12 off here; ssim() is 2 ulps off.
    a = np.full((11, 11), 225, dtype=np.uint8)
    b = np.full((11, 11), 255, dtype=np.uint8)
    c1 = Fraction((0.01 * 255.0) ** 2)
    exact = float((2 * 225 * 255 + c1) / (225 ** 2 + 255 ** 2 + c1))
    assert exact == pytest.approx(0.99221833636202164, abs=1e-16)
    assert oracle_ssim(a, b) == pytest.approx(exact, abs=1e-14)
    assert ssim(a, b) == pytest.approx(exact, abs=1e-14)


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


@st.composite
def ssim_pairs(draw):
    """Two same-shape uint8 images, 11..24 on each axis, of one of five kinds.

    Near-constant images (one level, +-1) are where the variances cancel
    worst: the filtered squares are about level^2 and the variances at
    most 1, so most of each plane's digits are lost in the subtraction.
    """
    shape = (draw(st.integers(11, 24)), draw(st.integers(11, 24)))
    kind = draw(st.sampled_from(["random", "identical", "constant", "near-constant", "negative"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "constant":
        a, b = (np.full(shape, draw(st.integers(0, 255)), np.uint8) for _ in range(2))
    elif kind == "near-constant":
        level = draw(st.integers(1, 254))
        a, b = (rng.integers(level - 1, level + 2, size=shape).astype(np.uint8) for _ in range(2))
    else:
        a = rng.integers(0, 256, size=shape, dtype=np.uint8)
        if kind == "random":
            b = rng.integers(0, 256, size=shape, dtype=np.uint8)
        elif kind == "identical":
            b = a.copy()
        else:
            b = 255 - a
    return a, b


# 300 examples, or more under a profile that asks for more (the "ci"
# profile of tests/conftest.py asks for 2000).
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(pair=ssim_pairs())
def test_ssim_matches_oracle_on_generated_pairs(pair):
    a, b = pair
    assert ssim(a, b) == pytest.approx(oracle_ssim(a, b), abs=1e-12)


def test_ssim_rejects_small_images():
    with pytest.raises(ValueError):
        ssim(np.zeros((10, 10), np.uint8), np.zeros((10, 10), np.uint8))


def full_frame_ssim(a, b):
    """SSIM with each of the four planes filtered over the whole frame and
    the tail in full-frame temporaries (test oracle).  ``ssim`` does the
    same per-pixel operations strip by strip, so the two agree bit for bit."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    mu_x = separable_filter(x, _SSIM_TAPS)
    mu_y = separable_filter(y, _SSIM_TAPS)
    sum_sq = separable_filter(x * x + y * y, _SSIM_TAPS)
    cross = separable_filter(x * y, _SSIM_TAPS)
    mu_sq = mu_x * mu_x + mu_y * mu_y
    mu_xy = mu_x * mu_y
    num = (2.0 * mu_xy + _SSIM_C1) * (2.0 * (cross - mu_xy) + _SSIM_C2)
    den = (mu_sq + _SSIM_C1) * (sum_sq - mu_sq + _SSIM_C2)
    return float(np.mean(num / den))


@st.composite
def strip_pairs(draw):
    """Two same-shape uint8 images, 11..160 on each axis, shaped against
    ``ssim``'s strips: one strip or less, an exact multiple of the strip
    height, a multiple + 1, the 11x11 minimum, wide, tall or any; the
    pixels span a random range, or the pair is identical or constant."""
    kind = draw(st.sampled_from(["any", "one strip", "multiple", "multiple + 1", "minimum", "wide", "tall"]))
    if kind == "minimum":
        shape = (11, 11)
    elif kind == "wide":
        shape = (draw(st.integers(11, 20)), draw(st.integers(100, 160)))
    elif kind == "tall":
        shape = (draw(st.integers(100, 160)), draw(st.integers(11, 20)))
    else:
        # From a width of 50 on, a strip holds fewer than 160 rows.
        w = draw(st.integers(50 if kind.startswith("multiple") else 11, 160))
        rows = _SSIM_STRIP_BYTES // (8 * (w + 10))
        if kind == "one strip":
            h = draw(st.integers(11, min(rows, 160)))
        elif kind == "any":
            h = draw(st.integers(11, 160))
        else:
            h = draw(st.integers(1, 159 // rows)) * rows + (kind == "multiple + 1")
        shape = (h, w)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pixels = draw(st.sampled_from(["range", "identical", "constant"]))
    if pixels == "constant":
        a, b = (np.full(shape, draw(st.integers(0, 255)), np.uint8) for _ in range(2))
    else:
        lo = draw(st.integers(0, 255))
        hi = draw(st.integers(lo, 255))
        a, b = (rng.integers(lo, hi + 1, size=shape).astype(np.uint8) for _ in range(2))
        if pixels == "identical":
            b = a.copy()
    return a, b


# 300 examples, or 2000 under the "ci" profile of tests/conftest.py.
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(pair=strip_pairs())
def test_ssim_in_strips_equals_full_frame_bit_for_bit(pair):
    a, b = pair
    bounds = _ssim_strip_bounds(*a.shape)
    heights = np.diff(bounds)
    assert bounds[0] == 0 and bounds[-1] == a.shape[0] and heights.max() - heights.min() <= 1
    assert ssim(a, b) == full_frame_ssim(a, b)


def test_ssim_makes_no_full_frame_temporaries():
    """Peak traced memory of ``ssim`` on 256x256, in float64 frames: the
    ratio map, the padded uint8 pair and one strip's buffers and formula
    temporaries come to 4.11; four filtered full-frame planes and their
    tail took 11.3."""
    rng = np.random.default_rng(23)
    a, b = (rng.integers(0, 256, size=(256, 256), dtype=np.uint8) for _ in range(2))
    tracemalloc.start()
    try:
        ssim(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * a.size * 8


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


def test_roc_auc_is_computed_when_first_read():
    """The AUC is the sequential trapezoid sum over ``points``, bit for
    bit, formed on the first read and not when the curve is built."""
    rng = np.random.default_rng(14)
    truth = rng.uniform(size=(16, 16)) < 0.3
    score = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
    curve = roc_curve_from_scores(score, truth)
    assert "auc" not in vars(curve)
    pts = curve.points
    want = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        want += (x1 - x0) * (y0 + y1) / 2.0
    assert curve.auc == want
    assert vars(curve)["auc"] == want


def test_roc_sweep_returns_both_curves():
    rng = np.random.default_rng(12)
    truth = rng.uniform(size=(9, 9)) < 0.5
    score = rng.integers(0, 256, size=(9, 9), dtype=np.uint8)
    base = rng.integers(0, 256, size=(9, 9), dtype=np.uint8)
    opt, baseline = roc_sweep(score, truth, base)
    assert isinstance(opt, RocCurve)
    assert opt.auc == roc_curve_from_scores(score, truth).auc
    assert baseline.auc == roc_curve_from_scores(base, truth).auc


def test_roc_sweep_names_the_mis_sized_input():
    truth = np.zeros((9, 9), dtype=bool)
    good, small = np.zeros((9, 9), dtype=np.uint8), np.zeros((4, 9), dtype=np.uint8)
    with pytest.raises(ValueError, match=r"baseline vs truth \(4, 9\) vs \(9, 9\)"):
        roc_sweep(good, truth, small)
    with pytest.raises(ValueError, match=r"score vs truth \(4, 9\) vs \(9, 9\)"):
        roc_sweep(small, truth, good)


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
