"""End-to-end segmentation pipeline and its output writer.

Stage order: input checks -> wavelet enhancement
(:func:`lcseg.wavelet.enhance_scales`, which decomposes only as deep as
the kept scales need: one level for the default scales 2 and 3 of 3) ->
bat threshold optimization -> histogram equalization -> :func:`segment`
on the enhanced ROI frame (markers from its gradient magnitude, the
watershed cut, basin classification, boundary) -> metrics/ROC (when
ground truth is supplied).  The input stage crops the input to the ROI
and checks the sizes of the image and of that frame and the truth shape,
so bad inputs fail before the expensive stages run.

The bat's threshold t splits the basins: a basin is tissue iff its mean
over the enhanced frame is > t (:func:`lcseg.watershed.labels_to_mask`),
and ``lcseg segment`` runs the same :func:`segment` at Otsu's t of its
input.  Histogram equalization stays as a stage of the paper's chain; its
output is ``equalized.pgm`` and the gray background of the overlay, and
the segmentation does not read it.  The ROC sweeps the enhanced frame.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bat, histeq, metrics, watershed as ws
from .config import PipelineConfig, RoiRect
from .image import (
    as_gray,
    check_same_shape,
    crop,
    labels_to_gray8,
    mask_to_gray8,
    scale_to_255,
    to_gray8,
    write_overlay,
    write_pgm,
)
from .wavelet import check_size_for_levels, enhance_scales

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


@contextmanager
def _stage(name: str):
    """Tag input errors with the stage name; other errors are bugs and propagate."""
    try:
        yield
    except (ValueError, OSError) as exc:
        raise PipelineError(name, exc) from exc


@dataclass
class Segmentation:
    gradient: np.ndarray  # the marker surface: Sobel magnitude on [0, 255]
    labels: np.ndarray
    mask: np.ndarray
    boundary: np.ndarray

    @property
    def degenerate(self) -> bool:
        """True when the mask holds a single class."""
        return bool(self.mask.all() or not self.mask.any())


@dataclass
class PipelineResult(Segmentation):
    """The ROI frame's :class:`Segmentation` plus the other stages' outputs."""

    enhanced: np.ndarray
    threshold: int
    bat_state: bat.BatState
    equalized: np.ndarray
    cropped: np.ndarray
    report: metrics.MetricsReport | None = None
    roc: tuple[metrics.RocCurve, metrics.RocCurve] | None = None
    truth: np.ndarray | None = None


def segment(image: np.ndarray, h_min: float, threshold: int) -> Segmentation:
    """Watershed-segment the gray ``image`` into tissue and pores.

    Markers come from the Sobel gradient magnitude of ``image``, rescaled
    to [0, 255] so that the ``h_min`` depth is comparable across images;
    the cut runs on ``image`` itself, and a basin is tissue iff its mean
    over ``image`` is > ``threshold``.  ``h_min`` and ``threshold`` are
    checked before the gradient.
    """
    ws.check_h_min(h_min)
    ws.check_threshold(threshold)
    gradient = scale_to_255(ws.gradient_magnitude(image))
    labels = ws.watershed_segment(gradient, image, h_min)
    mask = ws.labels_to_mask(labels, image, threshold)
    return Segmentation(gradient, labels, mask, ws.mask_boundary(mask))


def _frame(image: np.ndarray, roi: RoiRect | None) -> np.ndarray:
    """``image`` cropped to ``roi``; the image itself when there is none."""
    return image if roi is None else crop(image, roi.x0, roi.y0, roi.w, roi.h)


def run_pipeline(
    image: np.ndarray,
    truth: np.ndarray | None,
    config: PipelineConfig,
) -> PipelineResult:
    """Run every stage on ``image``; metrics need ``truth``.

    When a ROI is configured, ``truth`` may match either the full input
    or the cropped frame.  A degenerate segmentation (single-class mask)
    sets the ``degenerate`` flag rather than failing.  A bad gray image,
    one too small for the wavelet levels, a ROI outside it, a frame (the
    ROI, else the image) too small for the Sobel gradient or, with
    truth, for SSIM, and a truth matching neither shape fail in the
    ``input`` stage, before any other stage runs.
    """
    roi = config.roi

    with _stage("input"):
        img = as_gray(image)
        check_size_for_levels(img.shape, config.wavelet_levels)
        input_frame = _frame(img, roi)
        if truth is None:
            need, user = ws.SOBEL_MIN, "the Sobel gradient"
        else:
            need, user = metrics.SSIM_WINDOW, "SSIM"
        h, w = input_frame.shape
        if min(h, w) < need:
            what = "image" if roi is None else "ROI"
            raise ValueError(f"{what} {w}x{h} is below the {need}x{need} minimum of {user}")
        if truth is not None:
            truth = np.asarray(truth, dtype=bool)
            if truth.shape == img.shape:
                truth = _frame(truth, roi)
            check_same_shape(truth, input_frame, "truth vs frame")

    with _stage("wavelet"):
        enhanced = enhance_scales(img, config.wavelet_levels, config.kept_scales)

    with _stage("bat-optimize"):
        threshold, state = bat.optimize_threshold(enhanced, config.bat)

    with _stage("equalize"):
        equalized = histeq.equalize(enhanced)

    # The ROI was checked against the input, which these share the shape of.
    cropped = _frame(equalized, roi)
    enhanced_frame = _frame(enhanced, roi)

    with _stage("watershed"):
        seg = segment(enhanced_frame, config.h_min, threshold)

    report = None
    roc = None
    if truth is not None:
        with _stage("metrics"):
            report = metrics.full_report(seg.mask, truth, enhanced_frame, input_frame)
            roc = metrics.roc_sweep(enhanced_frame, truth, input_frame)

    return PipelineResult(
        **vars(seg),
        enhanced=enhanced,
        threshold=threshold,
        bat_state=state,
        equalized=equalized,
        cropped=cropped,
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

    def _write_text(name: str, text: str) -> None:
        _write(name, lambda p: p.write_text(text, encoding="utf-8", newline="\n"))

    _write("enhanced.pgm", lambda p: write_pgm(result.enhanced, p))
    _write("equalized.pgm", lambda p: write_pgm(result.equalized, p))
    _write("labels.pgm", lambda p: write_pgm(labels_to_gray8(result.labels), p))
    _write("mask.pgm", lambda p: write_pgm(mask_to_gray8(result.mask), p))
    _write("overlay.ppm", lambda p: write_overlay(result.cropped, result.boundary, p))
    _write_text("convergence.csv", bat.convergence_csv(result.bat_state))

    if result.report is not None:
        _write_text("report.csv", metrics.report_csv(result.report))
    if result.roc is not None:
        for name, curve in zip(("roc.csv", "roc_baseline.csv"), result.roc):
            _write_text(name, metrics.roc_csv(curve))
    if dump:
        _write("gradient.pgm", lambda p: write_pgm(to_gray8(result.gradient), p))
    return written
