"""End-to-end segmentation pipeline and its output writer.

Stage order: input checks -> wavelet enhancement -> bat threshold
optimization -> histogram equalization -> :func:`segment` on the ROI
frame (gradient-magnitude watershed, basin classification, boundary) ->
metrics/ROC (when ground truth is supplied).  The input stage crops the
input to the ROI and checks the image size against the wavelet levels,
the ROI and the truth shape, so bad inputs fail before the expensive
stages run.  The optimizer's threshold feeds the ROC/baseline comparison
and, optionally, basin classification; the main path segments via
watershed, not by binarizing at the threshold.
``lcseg segment`` runs the same :func:`segment`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import bat, histeq, metrics, watershed as ws
from .config import PipelineConfig, RoiRect
from .image import (
    as_gray,
    crop,
    labels_to_gray8,
    mask_to_gray8,
    scale_to_255,
    to_gray8,
    write_overlay,
    write_pgm,
)
from .wavelet import check_size_for_levels, enhance_scales, iuwt_decompose

__all__ = [
    "PipelineError",
    "PipelineResult",
    "Segmentation",
    "run_pipeline",
    "segment",
    "write_outputs",
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
    """Tag input errors with the stage name; other errors are bugs and propagate."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise PipelineError(name, exc) from exc


class Segmentation(NamedTuple):
    gradient: np.ndarray  # the flooded surface: Sobel magnitude on [0, 255]
    labels: np.ndarray
    mask: np.ndarray
    boundary: np.ndarray

    @property
    def degenerate(self) -> bool:
        """True when the mask holds a single class."""
        return bool(self.mask.all() or not self.mask.any())


def segment(
    image: np.ndarray,
    h_min: float,
    fixed_threshold: int | None = None,
    basin_image: np.ndarray | None = None,
) -> Segmentation:
    """Watershed-segment ``image`` into tissue and pores.

    Floods the Sobel gradient magnitude of ``image``, rescaled to
    [0, 255] so that the ``h_min`` depth is comparable across images.
    Basins are classified by their mean over ``basin_image`` (default:
    ``image``), by Otsu or, when given, by mean >= ``fixed_threshold``.
    """
    gradient = scale_to_255(ws.gradient_magnitude(image))
    labels = ws.watershed_segment(gradient, h_min)
    means_of = image if basin_image is None else basin_image
    mask = ws.labels_to_mask(labels, means_of, fixed_threshold=fixed_threshold)
    return Segmentation(gradient, labels, mask, ws.mask_boundary(mask))


def _frame(image: np.ndarray, roi: RoiRect | None) -> np.ndarray:
    """``image`` cropped to ``roi``; the image itself when there is none."""
    return image if roi is None else crop(image, roi.x0, roi.y0, roi.w, roi.h)


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
    sets the ``degenerate`` flag rather than failing.  An image too small
    for the wavelet levels, a ROI too small for the watershed (or, with
    truth, for SSIM) or outside the image, and a truth matching neither
    shape, fail in the ``input`` stage, before any other stage runs.
    """
    img = as_gray(image)
    roi = config.roi

    with _stage("input"):
        check_size_for_levels(img.shape, config.wavelet_levels)
        if truth is None:
            need, user = _MIN_ROI, "the Sobel gradient"
        else:
            need, user = _MIN_ROI_WITH_TRUTH, "SSIM"
        if roi is not None and (roi.w < need or roi.h < need):
            raise ValueError(f"ROI {roi.w}x{roi.h} is below the {need}x{need} minimum of {user}")
        input_frame = _frame(img, roi)
        if truth is not None:
            truth = np.asarray(truth, dtype=bool)
            if truth.shape == img.shape:
                truth = _frame(truth, roi)
            if truth.shape != input_frame.shape:
                raise ValueError(
                    f"truth shape {truth.shape} does not match frame {input_frame.shape}"
                )

    with _stage("wavelet"):
        pyramid = iuwt_decompose(img, config.wavelet_levels)
        enhanced = enhance_scales(pyramid, config.kept_scales)

    with _stage("bat-optimize"):
        threshold, state = bat.optimize_threshold(enhanced, config.bat)

    with _stage("equalize"):
        equalized = histeq.equalize(enhanced)

    # The ROI was checked against the input, which these share the shape of.
    cropped = _frame(equalized, roi)
    enhanced_frame = _frame(enhanced, roi)

    with _stage("watershed"):
        if config.basin_rule == "threshold":
            seg = segment(cropped, config.h_min, threshold, enhanced_frame)
        else:
            seg = segment(cropped, config.h_min)

    report = None
    roc = None
    if truth is not None:
        with _stage("metrics"):
            report = metrics.full_report(seg.mask, truth, enhanced_frame, input_frame)
            roc = metrics.roc_sweep(enhanced_frame, truth, input_frame)

    return PipelineResult(
        enhanced=enhanced,
        threshold=threshold,
        bat_state=state,
        equalized=equalized,
        cropped=cropped,
        gradient=seg.gradient,
        labels=seg.labels,
        mask=seg.mask,
        boundary=seg.boundary,
        degenerate=seg.degenerate,
        report=report,
        roc=roc,
        truth=truth,
    )


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
    _write("labels.pgm", lambda p: write_pgm(labels_to_gray8(result.labels), p))
    _write("mask.pgm", lambda p: write_pgm(mask_to_gray8(result.mask), p))
    _write("overlay.ppm", lambda p: write_overlay(result.cropped, result.boundary, p))
    _write("convergence.csv", lambda p: bat.write_convergence_csv(result.bat_state, p))

    if result.report is not None:
        _write(
            "report.csv",
            lambda p: p.write_text(metrics.report_csv(result.report), encoding="utf-8"),
        )
    if result.roc is not None:
        opt_curve, base_curve = result.roc
        _write("roc.csv", lambda p: p.write_text(metrics.roc_csv(opt_curve), encoding="utf-8"))
        _write(
            "roc_baseline.csv",
            lambda p: p.write_text(metrics.roc_csv(base_curve), encoding="utf-8"),
        )
    if dump:
        _write("gradient.pgm", lambda p: write_pgm(to_gray8(result.gradient), p))
    return written
