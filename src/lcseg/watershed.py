"""Gradient-magnitude surface, h-minima suppression and Meyer flooding.

The label map convention is 0 for watershed ridge pixels and 1..K for
catchment basins.  Flooding is fully deterministic; the exact contract
(neighbor order, queue seeding, tie-breaking, ridge rule) is spelled out
in :func:`watershed_segment` so that an independent re-implementation
can reproduce label maps pixel for pixel.
"""

from __future__ import annotations

import heapq

import numpy as np

from .bat import between_class_variance
from .image import as_gray

__all__ = [
    "gradient_magnitude",
    "h_minima",
    "regional_minima",
    "watershed_segment",
    "labels_to_mask",
    "mask_boundary",
]


def _mirror_pad(img: np.ndarray, pad: int) -> np.ndarray:
    return np.pad(img, pad, mode="reflect")


def gradient_magnitude(image: np.ndarray) -> np.ndarray:
    """Per-pixel sqrt(Gx^2 + Gy^2) with 3x3 Sobel kernels.

    Mirror boundary extension; requires at least a 3x3 image.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2 or img.shape[0] < 3 or img.shape[1] < 3:
        raise ValueError("gradient_magnitude needs an image of at least 3x3")
    p = _mirror_pad(img, 1)
    # Sobel x: [[-1,0,1],[-2,0,2],[-1,0,1]], y is its transpose.
    right = p[:-2, 2:] + 2.0 * p[1:-1, 2:] + p[2:, 2:]
    left = p[:-2, :-2] + 2.0 * p[1:-1, :-2] + p[2:, :-2]
    gx = right - left
    bottom = p[2:, :-2] + 2.0 * p[2:, 1:-1] + p[2:, 2:]
    top = p[:-2, :-2] + 2.0 * p[:-2, 1:-1] + p[:-2, 2:]
    gy = bottom - top
    return np.sqrt(gx * gx + gy * gy)


def _erode4(surface: np.ndarray) -> np.ndarray:
    """Minimum over each pixel and its in-bounds 4-neighbors."""
    p = np.pad(surface, 1, mode="constant", constant_values=np.inf)
    out = surface.copy()
    np.minimum(out, p[:-2, 1:-1], out=out)
    np.minimum(out, p[2:, 1:-1], out=out)
    np.minimum(out, p[1:-1, :-2], out=out)
    np.minimum(out, p[1:-1, 2:], out=out)
    return out


def h_minima(surface: np.ndarray, h: float) -> np.ndarray:
    """Fill every regional minimum shallower than depth ``h``.

    Morphological reconstruction by erosion of (surface + h) over
    surface, with the 4-connected structuring element: iterate
    R <- max(erode(R), surface) from R = surface + h until stable.
    """
    if not h >= 0:  # also rejects NaN, which would never converge
        raise ValueError("h must be non-negative")
    surf = np.asarray(surface, dtype=np.float64)
    if h == 0:
        return surf.copy()
    rec = surf + h
    while True:
        nxt = np.maximum(_erode4(rec), surf)
        if np.array_equal(nxt, rec):
            return rec
        rec = nxt


def regional_minima(surface: np.ndarray) -> tuple[np.ndarray, int]:
    """Label the 4-connected regional minima of ``surface``.

    A regional minimum is a connected plateau of equal value none of
    whose outer 4-neighbors is lower.  Components are numbered 1..K in
    row-major order of their first pixel; non-minimum pixels get 0.
    Returns the label array and K.
    """
    surf = np.asarray(surface, dtype=np.float64)
    h, w = surf.shape
    n = h * w
    index = np.arange(n).reshape(h, w)
    # Equal-value links to the right and downward neighbor.
    right = surf[:, :-1] == surf[:, 1:]
    down = surf[:-1] == surf[1:]
    a = np.concatenate((index[:, :-1][right], index[:-1][down]))
    b = np.concatenate((index[:, 1:][right], index[1:][down]))

    # Plateau labelling: hook the larger root of every link onto the
    # smaller, then pointer-jump to stars, until every link is internal.
    # Each plateau's root ends up as its smallest (row-major first) pixel.
    root = np.arange(n)
    while True:
        ra = root[a]
        rb = root[b]
        cross = ra != rb
        if not cross.any():
            break
        a, b, ra, rb = a[cross], b[cross], ra[cross], rb[cross]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped

    lower = np.zeros((h, w), dtype=bool)
    lower[1:] |= surf[:-1] < surf[1:]
    lower[:-1] |= surf[1:] < surf[:-1]
    lower[:, 1:] |= surf[:, :-1] < surf[:, 1:]
    lower[:, :-1] |= surf[:, 1:] < surf[:, :-1]
    not_minimum = np.zeros(n, dtype=bool)
    not_minimum[root[lower.ravel()]] = True

    is_minimum_root = (root == np.arange(n)) & ~not_minimum
    number = np.cumsum(is_minimum_root, dtype=np.int32)
    number[~is_minimum_root] = 0
    return number[root].reshape(h, w), int(is_minimum_root.sum())


def watershed_segment(surface: np.ndarray, h_min: float = 0.0) -> np.ndarray:
    """Marker-controlled priority flood of ``surface``, 4-connected.

    Contract, in full (an independent implementation following these
    rules reproduces the output exactly):

    1. The flooded surface is ``h_minima(surface, h_min)``, which
       rejects a negative or NaN ``h_min``.
    2. Markers are its 4-connected regional minima, labeled 1..K in
       row-major order of each component's first pixel.
    3. The queue holds (surface value, insertion sequence) entries and
       pops the smallest; equal values pop in insertion (FIFO) order.
       Each pixel is inserted at most once.
    4. Seeding scans marker pixels in row-major order and inserts their
       unlabeled neighbors in the order up, left, right, down.
    5. When a pixel pops, the distinct basin labels among its 4
       neighbors decide it: exactly one label claims it; two or more
       make it a ridge (label 0); none (reachable only through ridges)
       also makes it a ridge.  Either way its still-unqueued unlabeled
       neighbors are inserted, same neighbor order.

    Every pixel ends up labeled, each basin is 4-connected and contains
    exactly one marker component.
    """
    surf = np.asarray(surface, dtype=np.float64)
    if surf.ndim != 2:
        raise ValueError("expected a 2-D surface")
    if not np.isfinite(surf).all():
        raise ValueError("surface must be finite")
    filled = h_minima(surf, h_min)
    markers, count = regional_minima(filled)
    h, w = filled.shape

    # Flat row-major lists with a one-pixel border labeled -1, so that
    # the 4 neighbors of an image pixel p are p + offset, in the order
    # up, left, right, down, with no bounds checks.
    width = w + 2
    size = (h + 2) * width
    padded = np.pad(markers, 1, constant_values=-1).ravel()
    labels = padded.tolist()
    queued = (padded != 0).tolist()
    marker_pixels = np.flatnonzero(padded > 0).tolist()
    # Rule 3's (value, sequence) order as one integer key per entry:
    # rank(value) * size**2 + sequence * size + pixel.  Equal values share
    # a rank, so the sequence breaks their ties first-in first-out.
    rank = np.unique(filled, return_inverse=True)[1].reshape(h, w)
    rank = np.pad(rank, 1).ravel().tolist()
    rank_step = size * size
    up, left, right, down = -width, -1, 1, width

    heap: list[int] = []
    push = heapq.heappush
    pop = heapq.heappop
    seq_key = 0  # insertion sequence * size
    for p in marker_pixels:
        for q in (p + up, p + left, p + right, p + down):
            if not queued[q]:
                queued[q] = True
                push(heap, rank[q] * rank_step + seq_key + q)
                seq_key += size

    popped = 0
    while heap:
        p = pop(heap) % size
        popped += 1
        a = labels[p + up]
        b = labels[p + left]
        c = labels[p + right]
        d = labels[p + down]
        claim = max(a, b, c, d)
        if (
            claim > 0
            and (a <= 0 or a == claim)
            and (b <= 0 or b == claim)
            and (c <= 0 or c == claim)
            and (d <= 0 or d == claim)
        ):
            labels[p] = claim
        for q in (p + up, p + left, p + right, p + down):
            if not queued[q]:
                queued[q] = True
                push(heap, rank[q] * rank_step + seq_key + q)
                seq_key += size

    if count < 1 or len(marker_pixels) + popped != h * w:
        raise RuntimeError(
            f"flood left pixels undecided: {count} markers, "
            f"{len(marker_pixels)} marker pixels + {popped} popped "
            f"!= {h * w} pixels"
        )
    labels = np.asarray(labels, dtype=np.int32).reshape(h + 2, width)
    return labels[1:-1, 1:-1].copy()


def labels_to_mask(
    labels: np.ndarray,
    image: np.ndarray,
    fixed_threshold: int | None = None,
) -> np.ndarray:
    """Classify basins into tissue (foreground) and pores (background).

    Per-basin mean intensities are computed from ``image``.  By default
    the basins are split by the Otsu threshold of the floored basin
    means (one sample per basin): basins whose floored mean exceeds the
    lowest maximizer are foreground.  When no split has positive
    between-class variance (a single basin, or all means equal) every
    basin is foreground.  With ``fixed_threshold`` set, a basin is
    foreground iff its mean is >= that value.

    Ridge pixels inherit the majority class of their 4-connected basin
    neighbors; ties (including no basin neighbor) go to foreground.
    """
    lab = np.asarray(labels)
    img = as_gray(image)
    if lab.shape != img.shape:
        raise ValueError(
            f"dimension mismatch: labels {lab.shape} vs image {img.shape}"
        )
    k = int(lab.max())
    if k < 1:
        raise ValueError("label map has no basins")
    flat = lab.ravel()
    counts = np.bincount(flat, minlength=k + 1)
    sums = np.bincount(flat, weights=img.ravel().astype(np.float64), minlength=k + 1)
    basin_ids = np.nonzero(counts[1:])[0] + 1
    means = np.zeros(k + 1)
    means[basin_ids] = sums[basin_ids] / counts[basin_ids]

    foreground = np.zeros(k + 1, dtype=bool)
    if fixed_threshold is not None:
        foreground[basin_ids] = means[basin_ids] >= fixed_threshold
    else:
        binned = np.clip(np.floor(means[basin_ids]), 0, 255).astype(np.int64)
        hist = np.bincount(binned, minlength=256)
        sigma = between_class_variance(hist)
        if sigma.max() <= 0.0:
            foreground[basin_ids] = True
        else:
            t = int(np.argmax(sigma))
            foreground[basin_ids] = binned > t

    mask = foreground[lab]
    # Ridge vote: count foreground and background basin neighbors of
    # every pixel at once; the zero padding stands for "no basin".
    fg_map = np.pad(mask, 1).astype(np.int8)
    bg_map = np.pad((lab > 0) & ~mask, 1).astype(np.int8)
    fg = fg_map[:-2, 1:-1] + fg_map[2:, 1:-1] + fg_map[1:-1, :-2] + fg_map[1:-1, 2:]
    bg = bg_map[:-2, 1:-1] + bg_map[2:, 1:-1] + bg_map[1:-1, :-2] + bg_map[1:-1, 2:]
    ridge = lab == 0
    mask[ridge] = fg[ridge] >= bg[ridge]
    return mask


def mask_boundary(mask: np.ndarray) -> np.ndarray:
    """Inner boundary: foreground pixels touching background 4-wise.

    The image border counts as background, so foreground pixels on the
    border are always boundary.
    """
    m = np.asarray(mask, dtype=bool)
    p = np.pad(m, 1, mode="constant", constant_values=False)
    interior = p[:-2, 1:-1] & p[2:, 1:-1] & p[1:-1, :-2] & p[1:-1, 2:]
    return m & ~interior
