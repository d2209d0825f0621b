"""Isotropic undecimated wavelet transform (a trous scheme).

Decomposes an image into same-size detail planes w_1..w_J plus a coarse
approximation c_J such that the input is exactly c_J + sum(w_j).  The
scaling kernel is the cubic B3 spline (1/16)[1, 4, 6, 4, 1], applied by
:func:`lcseg.image.separable_filter` (the package's one filter) with hole
spacing 2**(j-1) at level j and mirror boundary extension (reflection
about the edge pixel, no edge repeat).

Each level filters with the integer taps [1, 4, 6, 4, 1] on both axes
and multiplies by 1/256 once.  Level 1 of a uint8 image therefore sums
in exact int32 (the filter's gain is 255 * 16 * 16); deeper levels and
float input sum in float64.  Scaling by a power of two commutes with
rounding, so this equals filtering with the taps divided by 16 bit for
bit, for values far enough from float64's overflow and underflow.

Reconstruction is a plain sum of planes, so c_d = c_J + sum(w_j, j > d)
for every depth d <= J.  :func:`enhance_scales` rebuilds c_J plus the
kept details from c_d plus the kept details up to d, where d is the
deepest scale that is not kept: with 3 levels and scales 2 and 3 kept,
one level (c_1) instead of three, and no detail plane at all.  On 8-bit
input every B3 sum is dyadic with at most 33 significant bits, so both
sums are exact in float64 and the result is the same bit for bit; float
input may move by a few ulps.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .image import check_int, scale_to_255, separable_filter, to_gray8

__all__ = [
    "WaveletPyramid",
    "iuwt_decompose",
    "iuwt_reconstruct",
    "enhance_scales",
    "min_size_for_levels",
    "check_size_for_levels",
    "check_scales",
]

_KERNEL = np.array([1, 4, 6, 4, 1])


class _Details(Sequence):
    """The detail planes w_j = c_{j-1} - c_j of one decomposition, each
    formed the first time it is read and then kept."""

    def __init__(self, approximations: list[np.ndarray]):
        self._approximations = approximations  # c_0 (the input) .. c_J
        self._planes: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._approximations) - 1

    def __getitem__(self, j):
        if isinstance(j, slice):
            return [self[i] for i in range(len(self))[j]]
        j = range(len(self))[j]
        if j not in self._planes:
            self._planes[j] = self._approximations[j] - self._approximations[j + 1]
        return self._planes[j]


@dataclass
class WaveletPyramid:
    """Coarse plane c_J and detail planes w_1..w_J of one decomposition.

    ``details[0]`` is the finest scale.  All planes share the input's
    shape and ``smooth + sum(details)`` reproduces the input to within
    1e-9 per pixel.  A pyramid from :func:`iuwt_decompose` forms each
    detail plane when it is first read, so a caller pays only for the
    planes it reads.
    """

    smooth: np.ndarray
    details: Sequence[np.ndarray]

    @property
    def levels(self) -> int:
        return len(self.details)

    def __post_init__(self) -> None:
        if not len(self.details):
            raise ValueError("pyramid must have at least one level")
        if isinstance(self.details, _Details):
            return  # differences of planes of the input's shape
        for w in self.details:
            if w.shape != self.smooth.shape:
                raise ValueError("all planes must share the same shape")


def min_size_for_levels(levels: int) -> int:
    """Smallest admissible image side for a ``levels``-deep transform."""
    return 2 ** (levels - 1) * 4 + 1


def check_size_for_levels(shape: tuple[int, int], levels: int) -> None:
    """Raise ``ValueError`` unless ``shape`` is 2-D and large enough for ``levels >= 1``."""
    if len(shape) != 2:
        raise ValueError("expected a 2-D image")
    if levels < 1:
        raise ValueError("wavelet levels must be at least 1")
    need = min_size_for_levels(levels)
    h, w = shape
    if h < need or w < need:
        raise ValueError(
            f"image {w}x{h} too small for {levels} levels (needs >= {need} per axis)"
        )


def check_scales(levels: int, kept_scales: Sequence[int]) -> None:
    """Raise ``ValueError`` unless ``kept_scales`` is a non-empty selection of 1..``levels``.

    Each entry must be an ``int`` (not a bool) of at least 1.
    """
    if not kept_scales:
        raise ValueError("kept_scales must be non-empty")
    for k in kept_scales:
        check_int("kept_scales entry", k, 1)
    if max(kept_scales) > levels:
        raise ValueError(f"kept_scales {kept_scales} outside the wavelet levels 1..{levels}")


def iuwt_decompose(image: np.ndarray, levels: int) -> WaveletPyramid:
    """Decompose ``image`` into ``levels`` undecimated wavelet planes.

    Level j smooths the previous approximation with the B3 kernel dilated
    by 2**(j-1); the detail plane is the difference of successive
    approximations, formed when it is first read.  Raises if
    ``levels < 1`` or the image is too small for the dilated kernel
    support.
    """
    approximations = [np.asarray(image)]
    check_size_for_levels(approximations[0].shape, levels)
    for j in range(levels):
        smoothed = separable_filter(approximations[-1], _KERNEL, _KERNEL, 2**j)
        smoothed *= 1 / 256  # _KERNEL is 16 times B3 on each axis
        approximations.append(smoothed)
    return WaveletPyramid(smooth=approximations[-1], details=_Details(approximations))


def iuwt_reconstruct(pyramid: WaveletPyramid) -> np.ndarray:
    """Invert the transform: coarse plane plus all detail planes."""
    out = pyramid.smooth.copy()
    for w in pyramid.details:
        out += w
    return out


def enhance_scales(
    image: np.ndarray, levels: int, kept_scales: Sequence[int]
) -> np.ndarray:
    """Rebuild an 8-bit image from the coarse plane and selected details.

    ``kept_scales`` holds 1-based scale indices of a ``levels``-deep
    transform of ``image``; the partial sum c_J + sum(w_j for j in kept)
    is rescaled linearly so its minimum maps to 0 and its maximum to 255
    (rounded half-up).  A constant partial sum yields the all-zero image.

    The sum is formed as c_d + sum(w_j for j in kept, j <= d), where d is
    the deepest scale not kept (1 when all are kept): every scale deeper
    than d is kept, so c_d = c_J + sum(w_j, j > d), and only d levels are
    decomposed, and only the kept details up to d are formed.  On 8-bit
    input both sums are exact in float64, so the result equals the full
    pyramid's bit for bit; on float input it may differ by a few ulps
    before rounding.
    """
    check_size_for_levels(np.shape(image), levels)
    check_scales(levels, kept_scales)
    kept = set(kept_scales)
    depth = max((j for j in range(1, levels + 1) if j not in kept), default=1)
    pyramid = iuwt_decompose(image, depth)
    total = pyramid.smooth
    for j in sorted(kept):
        if j <= depth:
            total = total + pyramid.details[j - 1]
    return to_gray8(scale_to_255(total))
