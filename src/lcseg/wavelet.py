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

A pyramid stores only its approximations c_0 (the input) .. c_J.  Its
detail planes w_j = c_{j-1} - c_j are all formed the first time
``details`` is read, and then kept; a caller that never reads them,
such as :func:`enhance_scales`, forms none.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .image import check_int, scale_to_255, separable_filter, to_gray8

__all__ = [
    "WaveletPyramid",
    "iuwt_decompose",
    "iuwt_reconstruct",
    "enhance_scales",
    "enhance_pyramid",
    "min_size_for_levels",
    "check_size_for_levels",
    "check_scales",
]

_KERNEL = np.array([1, 4, 6, 4, 1])


@dataclass
class WaveletPyramid:
    """Approximations c_0 (the input) .. c_J of one decomposition.

    ``smooth`` is c_J and ``details[0]`` is the finest scale w_1.  All
    planes share the input's shape and ``smooth + sum(details)``
    reproduces the input to within 1e-9 per pixel.
    """

    approximations: tuple[np.ndarray, ...]

    @property
    def smooth(self) -> np.ndarray:
        return self.approximations[-1]

    @property
    def levels(self) -> int:
        return len(self.approximations) - 1

    @cached_property
    def details(self) -> tuple[np.ndarray, ...]:
        c = self.approximations
        return tuple(a - b for a, b in zip(c, c[1:]))


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
    by 2**(j-1); the pyramid keeps the approximations and forms its
    detail planes as the module docstring says.  Raises if
    ``levels < 1`` or the image is too small for the dilated kernel
    support.
    """
    approximations = [np.asarray(image)]
    check_size_for_levels(approximations[0].shape, levels)
    for j in range(levels):
        smoothed = separable_filter(approximations[-1], _KERNEL, 2**j)
        smoothed *= 1 / 256  # _KERNEL is 16 times B3 on each axis
        approximations.append(smoothed)
    return WaveletPyramid(tuple(approximations))


def iuwt_reconstruct(pyramid: WaveletPyramid) -> np.ndarray:
    """Invert the transform: coarse plane plus all detail planes."""
    out = pyramid.smooth.copy()
    for w in pyramid.details:
        out += w
    return out


def _depth(levels: int, kept_scales: Sequence[int]) -> int:
    """The deepest scale of 1..``levels`` not kept; 1 when all are kept."""
    kept = set(kept_scales)
    return max((j for j in range(1, levels + 1) if j not in kept), default=1)


def enhance_scales(
    image: np.ndarray, levels: int, kept_scales: Sequence[int]
) -> np.ndarray:
    """Rebuild an 8-bit image from the coarse plane and selected details.

    ``kept_scales`` holds 1-based scale indices of a ``levels``-deep
    transform of ``image``; the partial sum c_J + sum(w_j for j in kept)
    is rescaled linearly so its minimum maps to 0 and its maximum to 255
    (rounded half-up).  A constant partial sum yields the all-zero image.

    The sum is formed as c_d + sum(c_{j-1} - c_j for j in kept, j <= d),
    where d is the deepest scale not kept (1 when all are kept): every
    scale deeper than d is kept, so c_d = c_J + sum(w_j, j > d), and only
    d levels are decomposed.  With 3 levels and scales 2 and 3 kept that
    is one level (c_1) instead of three, and no difference at all.  On
    8-bit input every B3 sum is dyadic with at most 33 significant bits,
    so both sums are exact in float64 and the result equals the full
    pyramid's bit for bit; on float input it may differ by a few ulps
    before rounding.
    """
    check_size_for_levels(np.shape(image), levels)
    check_scales(levels, kept_scales)
    pyramid = iuwt_decompose(image, _depth(levels, kept_scales))
    return enhance_pyramid(pyramid, levels, kept_scales)


def enhance_pyramid(
    pyramid: WaveletPyramid, levels: int, kept_scales: Sequence[int]
) -> np.ndarray:
    """:func:`enhance_scales` of the image that ``pyramid`` decomposes.

    It reads only the approximations c_0 .. c_d that the sum above uses,
    so ``pyramid`` may be any depth from d up; a shallower one raises
    ``ValueError``.  A caller that also needs the full ``levels``-deep
    pyramid, such as ``lcseg decompose --dump-planes``, decomposes once.
    """
    check_scales(levels, kept_scales)
    depth = _depth(levels, kept_scales)
    if pyramid.levels < depth:
        raise ValueError(f"the enhancement reads {depth} levels, the pyramid has {pyramid.levels}")
    c = pyramid.approximations
    total = c[depth]
    for j in sorted(set(kept_scales)):
        if j <= depth:
            total = total + (c[j - 1] - c[j])
    return to_gray8(scale_to_255(total))
