"""End-to-end segmentation pipeline and its output writer.

Stage order: wavelet enhancement -> bat threshold optimization ->
histogram equalization -> optional ROI crop -> gradient-magnitude
watershed -> basin classification -> metrics/ROC (when ground truth is
supplied).  The optimizer's threshold feeds the ROC/baseline comparison
and, optionally, basin classification; the main path segments via
watershed, not by binarizing at the threshold.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bat, histeq, metrics, watershed as ws
from .config import PipelineConfig
from .image import as_gray, crop, write_overlay, write_pgm
from .wavelet import enhance_scales, iuwt_decompose

__all__ = [
    "PipelineError",
    "PipelineResult",
    "run_pipeline",
    "write_outputs",
    "scale_to_255",
]


class PipelineError(RuntimeError):
    """A stage failure, tagged with the stage that raised it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage


@dataclass
class PipelineResult:
    enhanced: np.ndarray
    threshold: int
    bat_state: bat.BatState
    equalized: np.ndarray
    cropped: np.ndarray
    cropped_input: np.ndarray
    cropped_enhanced: np.ndarray
    gradient: np.ndarray
    labels: np.ndarray
    mask: np.ndarray
    boundary: np.ndarray
    degenerate: bool
    report: metrics.MetricsReport | None = None
    roc: tuple[metrics.RocCurve, metrics.RocCurve] | None = None
    truth: np.ndarray | None = None


@contextmanager
def _stage(name: str):
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, exc) from exc


def scale_to_255(surface: np.ndarray) -> np.ndarray:
    """Affine rescale onto [0, 255] (float); constant surfaces map to 0.

    The watershed stage floods the gradient on this scale so that the
    configured h_min depth is comparable across images.
    """
    lo = surface.min()
    hi = surface.max()
    if hi == lo:
        return np.zeros_like(surface)
    return (surface - lo) / (hi - lo) * 255.0


# Smallest ROI the later stages accept: the watershed's 3x3 Sobel kernel,
# and with truth given also the metrics' SSIM window.
_MIN_ROI = 3
_MIN_ROI_WITH_TRUTH = metrics.SSIM_WINDOW


def run_pipeline(
    image: np.ndarray,
    truth: np.ndarray | None,
    config: PipelineConfig,
) -> PipelineResult:
    """Run every stage on ``image``; metrics need ``truth``.

    When a ROI is configured, ``truth`` may match either the full input
    or the cropped frame.  A degenerate segmentation (single-class mask)
    sets the ``degenerate`` flag rather than failing.  A ROI too small
    for the watershed (or, with truth, for SSIM) fails in the ``input``
    stage, before any other stage runs.
    """
    img = as_gray(image)

    with _stage("input"):
        if truth is None:
            need, user = _MIN_ROI, "the Sobel gradient"
        else:
            need, user = _MIN_ROI_WITH_TRUTH, "SSIM"
        r = config.roi
        if r is not None and (r.w < need or r.h < need):
            raise ValueError(f"ROI {r.w}x{r.h} is below the {need}x{need} minimum of {user}")

    with _stage("wavelet"):
        pyramid = iuwt_decompose(img, config.wavelet_levels)
        enhanced = enhance_scales(pyramid, config.kept_scales)

    with _stage("bat-optimize"):
        threshold, state = bat.optimize_threshold(enhanced, config.bat)

    with _stage("equalize"):
        equalized = histeq.equalize(enhanced)

    with _stage("crop"):
        if config.roi is not None:
            r = config.roi
            cropped = crop(equalized, r.x0, r.y0, r.w, r.h)
            cropped_input = crop(img, r.x0, r.y0, r.w, r.h)
            cropped_enhanced = crop(enhanced, r.x0, r.y0, r.w, r.h)
        else:
            cropped = equalized
            cropped_input = img
            cropped_enhanced = enhanced
        if truth is not None:
            truth = np.asarray(truth, dtype=bool)
            if truth.shape == img.shape and config.roi is not None:
                r = config.roi
                truth = crop(truth, r.x0, r.y0, r.w, r.h)
            if truth.shape != cropped.shape:
                raise ValueError(
                    f"truth shape {truth.shape} does not match frame {cropped.shape}"
                )

    with _stage("watershed"):
        gradient = scale_to_255(ws.gradient_magnitude(cropped))
        labels = ws.watershed_segment(gradient, ws.WatershedParams(h_min=config.h_min))
        if config.basin_rule == "threshold":
            mask = ws.labels_to_mask(labels, cropped_enhanced, fixed_threshold=threshold)
        else:
            mask = ws.labels_to_mask(labels, cropped)
        boundary = ws.mask_boundary(mask)

    degenerate = bool(mask.all() or not mask.any())

    report = None
    roc = None
    if truth is not None:
        with _stage("metrics"):
            report = metrics.full_report(mask, truth, cropped_enhanced, cropped_input)
            roc = metrics.roc_sweep(cropped_enhanced, truth, cropped_input)

    return PipelineResult(
        enhanced=enhanced,
        threshold=threshold,
        bat_state=state,
        equalized=equalized,
        cropped=cropped,
        cropped_input=cropped_input,
        cropped_enhanced=cropped_enhanced,
        gradient=gradient,
        labels=labels,
        mask=mask,
        boundary=boundary,
        degenerate=degenerate,
        report=report,
        roc=roc,
        truth=truth,
    )


def _labels_to_pgm(labels: np.ndarray) -> np.ndarray:
    """Label map as an 8-bit raster; basins above 255 saturate at 255."""
    return np.minimum(labels, 255).astype(np.uint8)


def write_outputs(result: PipelineResult, out_dir, dump: bool = False) -> list[str]:
    """Write the run's artifact files; returns the file names written.

    Always: enhanced.pgm, equalized.pgm, labels.pgm, mask.pgm,
    overlay.ppm, convergence.csv, plus report.csv/roc.csv/roc_baseline.csv
    when metrics were computed.  ``dump`` adds the gradient surface.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[str] = []

    def _write(name: str, writer) -> None:
        writer(out / name)
        written.append(name)

    _write("enhanced.pgm", lambda p: write_pgm(result.enhanced, p))
    _write("equalized.pgm", lambda p: write_pgm(result.equalized, p))
    _write("labels.pgm", lambda p: write_pgm(_labels_to_pgm(result.labels), p))
    _write(
        "mask.pgm",
        lambda p: write_pgm(result.mask.astype(np.uint8) * 255, p),
    )
    _write("overlay.ppm", lambda p: write_overlay(result.cropped, result.boundary, p))
    _write("convergence.csv", lambda p: bat.write_convergence_csv(result.bat_state, p))

    if result.report is not None:
        _write(
            "report.csv",
            lambda p: p.write_text(metrics.report_csv(result.report), encoding="utf-8"),
        )
    if result.roc is not None and result.truth is not None:
        opt_curve, base_curve = result.roc
        _write(
            "roc.csv",
            lambda p: p.write_text(
                metrics.roc_csv(opt_curve, result.cropped_enhanced, result.truth),
                encoding="utf-8",
            ),
        )
        _write(
            "roc_baseline.csv",
            lambda p: p.write_text(
                metrics.roc_csv(base_curve, result.cropped_input, result.truth),
                encoding="utf-8",
            ),
        )
    if dump:
        grad8 = np.clip(np.floor(result.gradient + 0.5), 0, 255).astype(np.uint8)
        _write("gradient.pgm", lambda p: write_pgm(grad8, p))
    return written
