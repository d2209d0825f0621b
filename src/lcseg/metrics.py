"""Segmentation and image-quality measures plus the ROC sweep.

Covers the eight-entry evaluation suite (PSNR, MSE, F-measure, Rand
index, sensitivity, specificity, SSIM, accuracy) and threshold-sweep ROC
curves with trapezoidal AUC.  All ratio metrics use the 0/0 -> 0
convention so every function is total.  SSIM's Gaussian window is
:func:`lcseg.image.separable_filter`, the filter the wavelet uses too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .image import as_gray, separable_filter

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


def _check_same_shape(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {what} {a.shape} vs {b.shape}")


def confusion(pred: np.ndarray, truth: np.ndarray) -> ConfusionCounts:
    """Pixelwise confusion counts; foreground (True) is the positive class."""
    p = np.asarray(pred, dtype=bool)
    t = np.asarray(truth, dtype=bool)
    _check_same_shape(p, t, "pred vs truth")
    tp = int(np.count_nonzero(p & t))
    fp = int(np.count_nonzero(p & ~t))
    fn = int(np.count_nonzero(~p & t))
    tn = int(np.count_nonzero(~p & ~t))
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def mse_psnr(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Mean squared error and 10*log10(255^2 / mse); psnr is inf at mse 0."""
    x = as_gray(a).astype(np.float64)
    y = as_gray(b).astype(np.float64)
    _check_same_shape(x, y, "images")
    mse = float(np.mean((x - y) ** 2))
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

    Accepts binary masks or multi-label maps of equal size.  Computed
    from the contingency table in O(K1*K2), never by pair enumeration.
    """
    p = np.asarray(pred).ravel()
    t = np.asarray(truth).ravel()
    if p.size != t.size:
        raise ValueError(f"size mismatch: {p.size} vs {t.size}")
    p_values, pi = np.unique(p, return_inverse=True)
    t_values, ti = np.unique(t, return_inverse=True)
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


def _gaussian_taps() -> np.ndarray:
    half = SSIM_WINDOW // 2
    xs = np.arange(-half, half + 1, dtype=np.float64)
    g = np.exp(-(xs ** 2) / (2.0 * _SSIM_SIGMA ** 2))
    return g / g.sum()


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean local structural similarity in [-1, 1].

    11x11 Gaussian window (sigma 1.5) centered at every pixel with
    mirror extension; the standard stabilizers C1 = (0.01*255)^2 and
    C2 = (0.03*255)^2.
    """
    x = as_gray(a).astype(np.float64)
    y = as_gray(b).astype(np.float64)
    _check_same_shape(x, y, "images")
    if x.shape[0] < SSIM_WINDOW or x.shape[1] < SSIM_WINDOW:
        raise ValueError(f"ssim needs images of at least {SSIM_WINDOW}x{SSIM_WINDOW}")
    taps = _gaussian_taps()
    mu_x = separable_filter(x, taps)
    mu_y = separable_filter(y, taps)
    xx = separable_filter(x * x, taps) - mu_x * mu_x
    yy = separable_filter(y * y, taps) - mu_y * mu_y
    xy = separable_filter(x * y, taps) - mu_x * mu_y
    num = (2.0 * mu_x * mu_y + _SSIM_C1) * (2.0 * xy + _SSIM_C2)
    den = (mu_x * mu_x + mu_y * mu_y + _SSIM_C1) * (xx + yy + _SSIM_C2)
    return float(np.mean(num / den))


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
    t in 0..255, in sweep order; ``points`` holds the same rates plus the
    anchors, sorted by false-positive rate.
    """

    points: tuple[tuple[float, float], ...]
    auc: float
    fpr: tuple[float, ...]
    tpr: tuple[float, ...]


def _sweep_rates(score_image: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(fpr, tpr) of predicting score >= t, for every t in 0..255."""
    img = as_gray(score_image)
    t = np.asarray(truth, dtype=bool)
    _check_same_shape(img, t, "score vs truth")
    pos = int(np.count_nonzero(t))
    neg = t.size - pos
    pos_hist = np.bincount(img[t].ravel(), minlength=256)
    neg_hist = np.bincount(img[~t].ravel(), minlength=256)
    # tp(t) = count of positives with score >= t (suffix sums).
    tp = np.cumsum(pos_hist[::-1])[::-1]
    fp = np.cumsum(neg_hist[::-1])[::-1]
    tpr = tp / pos if pos > 0 else np.zeros(256)
    fpr = fp / neg if neg > 0 else np.zeros(256)
    return fpr, tpr


def roc_curve_from_scores(score_image: np.ndarray, truth: np.ndarray) -> RocCurve:
    """ROC of thresholding ``score_image`` at every t in 0..255.

    A pixel is predicted positive when its score is >= t.  Points are
    ordered by increasing false-positive rate (anchors included) and the
    AUC is the trapezoidal area under that polyline.  Degenerate truth
    (an empty class) yields rates of 0 for that class.
    """
    fpr, tpr = (tuple(r.tolist()) for r in _sweep_rates(score_image, truth))
    pts = sorted([*zip(fpr, tpr), (0.0, 0.0), (1.0, 1.0)])
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        auc += (x1 - x0) * (y0 + y1) / 2.0
    return RocCurve(points=tuple(pts), auc=auc, fpr=fpr, tpr=tpr)


def roc_sweep(
    score_image: np.ndarray, truth: np.ndarray, baseline: np.ndarray
) -> tuple[RocCurve, RocCurve]:
    """ROC curves of the pipeline score image and of the baseline image."""
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
