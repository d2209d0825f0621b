"""Isotropic undecimated wavelet transform (a trous scheme).

Decomposes an image into same-size detail planes w_1..w_J plus a coarse
approximation c_J such that the input is exactly c_J + sum(w_j).  The
scaling kernel is the cubic B3 spline (1/16)[1, 4, 6, 4, 1], applied by
:func:`lcseg.image.separable_filter` (the package's one filter) with hole
spacing 2**(j-1) at level j and mirror boundary extension (reflection
about the edge pixel, no edge repeat).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .image import scale_to_255, separable_filter, to_gray8

__all__ = [
    "WaveletPyramid",
    "iuwt_decompose",
    "iuwt_reconstruct",
    "enhance_scales",
    "min_size_for_levels",
    "check_size_for_levels",
]

_KERNEL = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


@dataclass
class WaveletPyramid:
    """Coarse plane c_J and detail planes w_1..w_J of one decomposition.

    ``details[0]`` is the finest scale.  All planes share the input's
    shape and ``smooth + sum(details)`` reproduces the input to within
    1e-9 per pixel.
    """

    levels: int
    smooth: np.ndarray
    details: list[np.ndarray]

    @property
    def shape(self) -> tuple[int, int]:
        return self.smooth.shape

    def __post_init__(self) -> None:
        if self.levels < 1:
            raise ValueError("pyramid must have at least one level")
        if len(self.details) != self.levels:
            raise ValueError(
                f"expected {self.levels} detail planes, got {len(self.details)}"
            )
        for w in self.details:
            if w.shape != self.smooth.shape:
                raise ValueError("all planes must share the same shape")


def min_size_for_levels(levels: int) -> int:
    """Smallest admissible image side for a ``levels``-deep transform."""
    return 2 ** (levels - 1) * 4 + 1


def check_size_for_levels(shape: tuple[int, int], levels: int) -> None:
    """Raise ``ValueError`` if an image of ``shape`` is too small for ``levels``."""
    need = min_size_for_levels(levels)
    h, w = shape
    if h < need or w < need:
        raise ValueError(
            f"image {w}x{h} too small for {levels} levels (needs >= {need} per axis)"
        )


def iuwt_decompose(image: np.ndarray, levels: int) -> WaveletPyramid:
    """Decompose ``image`` into ``levels`` undecimated wavelet planes.

    Level j smooths the previous approximation with the B3 kernel dilated
    by 2**(j-1); the detail plane is the difference of successive
    approximations.  Raises if the image is too small for the dilated
    kernel support.
    """
    if levels < 1:
        raise ValueError("levels must be at least 1")
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError("expected a 2-D image")
    check_size_for_levels(img.shape, levels)

    details: list[np.ndarray] = []
    current = img
    for j in range(1, levels + 1):
        smoothed = separable_filter(current, _KERNEL, 2 ** (j - 1))
        details.append(current - smoothed)
        current = smoothed
    return WaveletPyramid(levels=levels, smooth=current, details=details)


def iuwt_reconstruct(pyramid: WaveletPyramid) -> np.ndarray:
    """Invert the transform: coarse plane plus all detail planes."""
    out = pyramid.smooth.copy()
    for w in pyramid.details:
        out += w
    return out


def enhance_scales(pyramid: WaveletPyramid, kept_scales: Iterable[int]) -> np.ndarray:
    """Rebuild an 8-bit image from the coarse plane and selected details.

    ``kept_scales`` holds 1-based scale indices; the partial sum
    c_J + sum(w_j for j in kept) is rescaled linearly so its minimum maps
    to 0 and its maximum to 255 (rounded half-up).  A constant partial
    sum yields the all-zero image.
    """
    kept = sorted(set(int(k) for k in kept_scales))
    if not kept:
        raise ValueError("kept_scales must be non-empty")
    if kept[0] < 1 or kept[-1] > pyramid.levels:
        raise ValueError(
            f"kept_scales {kept} outside valid range 1..{pyramid.levels}"
        )
    total = pyramid.smooth.copy()
    for j in kept:
        total += pyramid.details[j - 1]
    return to_gray8(scale_to_255(total))
