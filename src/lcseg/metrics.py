"""Segmentation and image-quality measures plus the ROC sweep.

Covers the eight-entry evaluation suite (PSNR, MSE, F-measure, Rand
index, sensitivity, specificity, SSIM, accuracy) and threshold-sweep ROC
curves with trapezoidal AUC.  All ratio metrics use the 0/0 -> 0
convention so every function is total.

SSIM runs in row strips: each strip stacks its four planes (x, y,
x*x + y*y and x*y, with the window's halo rows) into one slab that
:func:`lcseg.image.filter_padded` filters with the 11-tap Gaussian,
sized by ``_SSIM_STRIP_BYTES`` so it stays in cache, and each strip
evaluates the SSIM ratio formula on its filtered planes.  No pixel's
operations or their order change, so the value is bit-identical to
filtering whole frames; ``np.mean`` runs once over the whole ratio map,
as per-strip sums would change its pairwise order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .image import as_gray, check_same_shape, filter_padded, mirror_pad

__all__ = [
    "ConfusionCounts",
    "MetricsReport",
    "RocCurve",
    "confusion",
    "mse_psnr",
    "precision_recall_f",
    "rand_index",
    "ssim",
    "full_report",
    "roc_curve_from_scores",
    "roc_sweep",
    "report_csv",
    "report_table",
    "roc_csv",
]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def sensitivity(self) -> float:
        """Recall of the foreground class, in percent."""
        return 100.0 * _ratio(self.tp, self.tp + self.fn)

    @property
    def specificity(self) -> float:
        """Recall of the background class, in percent."""
        return 100.0 * _ratio(self.tn, self.tn + self.fp)

    @property
    def accuracy(self) -> float:
        return 100.0 * _ratio(self.tp + self.tn, self.total)


@dataclass(frozen=True)
class MetricsReport:
    """One row of the evaluation suite; percentages are in [0, 100]."""

    psnr: float
    mse: float
    f_measure: float
    rand_index: float
    sensitivity: float
    specificity: float
    ssim: float
    accuracy: float


def confusion(pred: np.ndarray, truth: np.ndarray) -> ConfusionCounts:
    """Pixelwise confusion counts; foreground (True) is the positive class."""
    p = np.asarray(pred, dtype=bool)
    t = np.asarray(truth, dtype=bool)
    check_same_shape(p, t, "pred vs truth")
    tp = int(np.count_nonzero(p & t))
    fp = int(np.count_nonzero(p)) - tp
    fn = int(np.count_nonzero(t)) - tp
    tn = p.size - tp - fp - fn
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def mse_psnr(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Mean squared error and 10*log10(255^2 / mse); psnr is inf at mse 0.

    The squared differences are summed as integers and divided once by
    the pixel count: every partial sum is a whole number below 2**53, so
    this is the value of ``np.mean`` over float64 squares, bit for bit.
    """
    x = as_gray(a)
    y = as_gray(b)
    check_same_shape(x, y, "images")
    diff = np.subtract(x, y, dtype=np.int32)
    diff *= diff
    mse = int(diff.sum(dtype=np.int64)) / diff.size
    psnr = math.inf if mse == 0 else 10.0 * math.log10(255.0 ** 2 / mse)
    return mse, psnr


def precision_recall_f(counts: ConfusionCounts) -> tuple[float, float, float]:
    precision = _ratio(counts.tp, counts.tp + counts.fp)
    recall = _ratio(counts.tp, counts.tp + counts.fn)
    f = _ratio(2.0 * precision * recall, precision + recall)
    return precision, recall, f


def _rand_from_table(table) -> float:
    """Rand index from the contingency table of two partitions.

    With n(n-1)/2 total pairs, a = pairs co-clustered in both and
    b = pairs separated in both, RI = (a + b) / C(n, 2).
    """
    table = np.asarray(table)
    n = int(table.sum())
    if n < 2:
        raise ValueError("rand index needs at least 2 pixels")

    def comb2(x: np.ndarray) -> float:
        x = x.astype(np.float64)
        return float((x * (x - 1.0) / 2.0).sum())

    pairs_total = n * (n - 1) / 2.0
    a = comb2(table)
    sum_rows = comb2(table.sum(axis=1))
    sum_cols = comb2(table.sum(axis=0))
    b = pairs_total - sum_rows - sum_cols + a
    return (a + b) / pairs_total


def rand_index(pred: np.ndarray, truth: np.ndarray) -> float:
    """Fraction of pixel pairs on which the two partitions agree.

    Accepts binary masks or multi-label maps of equal shape.  Computed
    from the contingency table in O(K1*K2), never by pair enumeration.
    """
    p, t = np.asarray(pred), np.asarray(truth)
    check_same_shape(p, t, "pred vs truth")
    p_values, pi = np.unique(p.ravel(), return_inverse=True)
    t_values, ti = np.unique(t.ravel(), return_inverse=True)
    k1, k2 = p_values.size, t_values.size
    table = np.bincount(pi * k2 + ti, minlength=k1 * k2).reshape(k1, k2)
    return _rand_from_table(table)


# ---------------------------------------------------------------------------
# SSIM
# ---------------------------------------------------------------------------

SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_SSIM_C1 = (0.01 * 255.0) ** 2
_SSIM_C2 = (0.03 * 255.0) ** 2
_SSIM_GAUSS = np.exp(-((np.arange(SSIM_WINDOW) - SSIM_WINDOW // 2) ** 2) / (2.0 * _SSIM_SIGMA ** 2))
_SSIM_TAPS = _SSIM_GAUSS / _SSIM_GAUSS.sum()
_SSIM_REACH = SSIM_WINDOW // 2
# Bytes of one plane's padded row band: four stacked bands and the fold's
# buffers of the same size stay in cache (30 rows at a width of 256).
_SSIM_STRIP_BYTES = 64 * 1024


def _ssim_strip_bounds(h: int, w: int) -> list[int]:
    """Row bounds of the fewest equal-height strips (heights differ by at
    most one) whose padded row bands fit ``_SSIM_STRIP_BYTES`` a plane."""
    most_rows = max(1, _SSIM_STRIP_BYTES // (8 * (w + 2 * _SSIM_REACH)))
    strips = -(-h // most_rows)
    return [h * i // strips for i in range(strips + 1)]


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean local structural similarity in [-1, 1].

    11x11 Gaussian window (sigma 1.5) centered at every pixel with
    mirror extension; the standard stabilizers C1 = (0.01*255)^2 and
    C2 = (0.03*255)^2.  The variances enter only as their sum, so it
    filters four planes: x, y, x*x + y*y and x*y.

    The frame goes through in equal-height strips of rows, each one
    stack of the four planes plus the window's halo rows, small enough to
    stay in cache; no float plane of the full frame is made.  Each pixel
    gets the same operations in the same order as a full-frame filter
    would give it, so the strips change no bit.  The ratio map is
    written strip by strip into one array and averaged by one
    ``np.mean``, whose pairwise sum would change order if split.
    """
    x = as_gray(a)
    y = as_gray(b)
    check_same_shape(x, y, "images")
    h, w = x.shape
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ValueError(f"ssim needs images of at least {SSIM_WINDOW}x{SSIM_WINDOW}")
    r = _SSIM_REACH
    padded = mirror_pad(np.stack((x, y)), r)
    bounds = _ssim_strip_bounds(h, w)
    slab_buffer = np.empty(4 * (max(np.diff(bounds)) + 2 * r) * (w + 2 * r))
    ratio = np.empty((h, w))
    for lo, hi in zip(bounds, bounds[1:]):
        slab = slab_buffer[: 4 * (hi - lo + 2 * r) * (w + 2 * r)].reshape(4, -1, w + 2 * r)
        slab[:2] = padded[:, lo : hi + 2 * r]
        np.multiply(slab[0], slab[0], out=slab[2])
        np.multiply(slab[1], slab[1], out=slab[3])
        slab[2] += slab[3]
        np.multiply(slab[0], slab[1], out=slab[3])
        mu_x, mu_y, sum_sq, cross = filter_padded(slab, _SSIM_TAPS, 1)
        mu_xy = mu_x * mu_y
        mu_sq = mu_x * mu_x + mu_y * mu_y
        num = (2.0 * mu_xy + _SSIM_C1) * (2.0 * (cross - mu_xy) + _SSIM_C2)
        ratio[lo:hi] = num / ((mu_sq + _SSIM_C1) * (sum_sq - mu_sq + _SSIM_C2))
    return float(np.mean(ratio))


def full_report(
    pred: np.ndarray,
    truth: np.ndarray,
    pred_img: np.ndarray,
    truth_img: np.ndarray,
) -> MetricsReport:
    """Assemble the eight-measure report from two masks and an image pair.

    ``pred`` and ``truth`` are read as boolean masks; for the Rand index
    of two multi-label maps call :func:`rand_index` directly.

    Classification measures, the Rand index included, come from one
    confusion computation (single source of truth); PSNR/MSE/SSIM compare
    ``pred_img`` to ``truth_img``; SSIM is reported times 100.
    """
    counts = confusion(pred, truth)
    _, _, f = precision_recall_f(counts)
    mse, psnr = mse_psnr(pred_img, truth_img)
    return MetricsReport(
        psnr=psnr,
        mse=mse,
        f_measure=f,
        # Rows: pred False/True; columns: truth False/True.
        rand_index=_rand_from_table([[counts.tn, counts.fn], [counts.fp, counts.tp]]),
        sensitivity=counts.sensitivity,
        specificity=counts.specificity,
        ssim=100.0 * ssim(pred_img, truth_img),
        accuracy=counts.accuracy,
    )


# ---------------------------------------------------------------------------
# ROC
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RocCurve:
    """Threshold-sweep operating points plus (0,0)/(1,1) anchors.

    ``fpr[t]`` and ``tpr[t]`` are the rates of predicting score >= t for
    t in 0..255, in sweep order.  Neither rises with t, so ``points``,
    which reads them backwards between the anchors, is ordered by
    false-positive rate; ``auc``, computed when first read, is the
    trapezoidal area under it.
    """

    fpr: tuple[float, ...]
    tpr: tuple[float, ...]

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        return ((0.0, 0.0), *zip(self.fpr[::-1], self.tpr[::-1]), (1.0, 1.0))

    @cached_property
    def auc(self) -> float:
        pts = self.points
        auc = 0.0
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            auc += (x1 - x0) * (y0 + y1) / 2.0
        return auc


def roc_curve_from_scores(score_image: np.ndarray, truth: np.ndarray) -> RocCurve:
    """ROC of thresholding ``score_image`` at every t in 0..255.

    A pixel is predicted positive when its score is >= t.  Degenerate
    truth (an empty class) yields rates of 0 for that class.
    """
    img = as_gray(score_image)
    t = np.asarray(truth, dtype=bool)
    check_same_shape(img, t, "score vs truth")
    # One count of every (score, truth) pair, in bin 2 * score + truth;
    # its suffix sums give fp(t) and tp(t), the negatives and positives
    # with score >= t, whose values at t = 0 are the class sizes.
    key = np.left_shift(img, 1, dtype=np.uint16)
    key |= t
    counts = np.bincount(key.ravel(), minlength=512).reshape(256, 2)
    fp, tp = np.cumsum(counts[::-1], axis=0)[::-1].T
    neg, pos = fp[0], tp[0]
    tpr = tp / pos if pos > 0 else np.zeros(256)
    fpr = fp / neg if neg > 0 else np.zeros(256)
    return RocCurve(fpr=tuple(fpr.tolist()), tpr=tuple(tpr.tolist()))


def roc_sweep(
    score_image: np.ndarray, truth: np.ndarray, baseline: np.ndarray
) -> tuple[RocCurve, RocCurve]:
    """ROC curves of the pipeline score image and of the baseline image."""
    check_same_shape(np.asarray(baseline), np.asarray(truth), "baseline vs truth")
    return (
        roc_curve_from_scores(score_image, truth),
        roc_curve_from_scores(baseline, truth),
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_REPORT_FIELDS = (
    ("PSNR", "psnr"),
    ("MSE", "mse"),
    ("F-Measure", "f_measure"),
    ("Rand Index", "rand_index"),
    ("Sensitivity", "sensitivity"),
    ("Specificity", "specificity"),
    ("SSIM", "ssim"),
    ("Accuracy", "accuracy"),
)


def _fmt(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:.6g}"


def report_csv(report: MetricsReport) -> str:
    """Header plus one data row, fields in the suite's canonical order."""
    header = ",".join(attr for _, attr in _REPORT_FIELDS)
    row = ",".join(_fmt(getattr(report, attr)) for _, attr in _REPORT_FIELDS)
    return f"{header}\n{row}\n"


def report_table(report: MetricsReport) -> str:
    """Aligned two-column table, one measure per line."""
    width = max(len(name) for name, _ in _REPORT_FIELDS)
    lines = [
        f"{name:<{width}}  {_fmt(getattr(report, attr))}"
        for name, attr in _REPORT_FIELDS
    ]
    return "\n".join(lines) + "\n"


def roc_csv(curve: RocCurve) -> str:
    """Per-threshold rows (t = 0..255) plus a trailing AUC comment."""
    lines = ["threshold,fpr,tpr"]
    for thr, (fpr, tpr) in enumerate(zip(curve.fpr, curve.tpr)):
        lines.append(f"{thr},{fpr:.6g},{tpr:.6g}")
    lines.append(f"# auc={curve.auc:.6g}")
    return "\n".join(lines) + "\n"
