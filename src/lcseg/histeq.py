"""Global histogram equalization and intensity histograms."""

from __future__ import annotations

import numpy as np

from .image import as_gray, to_gray8

__all__ = ["histogram", "equalization_map", "equalize"]


def histogram(image: np.ndarray) -> np.ndarray:
    """256-bin intensity histogram; ``bins[v]`` counts pixels of value v."""
    img = as_gray(image)
    return np.bincount(img.ravel(), minlength=256).astype(np.int64)


def equalization_map(image: np.ndarray) -> np.ndarray:
    """The monotone intensity remap used by :func:`equalize`.

    map(v) = round((cdf(v) - cdf_min) / (total - cdf_min) * 255) where
    cdf_min is the smallest nonzero cdf value.  For a single-intensity
    image (total == cdf_min) the map is the identity.
    """
    hist = histogram(image)
    cdf = np.cumsum(hist)
    total = int(cdf[-1])
    cdf_min = int(cdf[np.nonzero(hist)[0][0]])
    if total == cdf_min:
        return np.arange(256, dtype=np.uint8)
    return to_gray8((cdf - cdf_min) / (total - cdf_min) * 255.0)


def equalize(image: np.ndarray) -> np.ndarray:
    """Standard global histogram equalization.

    Rank-preserving: v1 <= v2 implies map(v1) <= map(v2).  Whenever the
    input has at least two distinct intensities the output attains both
    0 and 255.  Single-intensity images are returned unchanged.
    """
    img = as_gray(image)
    return equalization_map(img)[img]
