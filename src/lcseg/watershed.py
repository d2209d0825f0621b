"""Gradient-magnitude surface, h-minima suppression and Meyer flooding.

The label map convention is 0 for watershed ridge pixels and 1..K for
catchment basins.  The flood drains one FIFO list per surface value in
increasing order (Beucher & Meyer's hierarchical queue); its exact,
deterministic contract is spelled out in :func:`watershed_segment`.

Most pixels of a noisy gradient skip that queue.  A non-marker pixel is
*deferred* when each of its 4 neighbors is strictly lower, or strictly
higher and deferred itself; the other non-marker pixels are *queued*.
The queue floods the queued pixels alone, and the deferred ones are
labeled after it, bottom-up, in vectorized passes.  Each takes the one
distinct basin label among its neighbors, or 0 for none or several,
which is the label the full queue gives it:

- Strict value order: the queue pops a pixel after all its strictly
  lower neighbors and before all its strictly higher ones.  When a
  deferred pixel pops, its lower neighbors hold their final labels and
  its higher ones hold none yet.
- No equal neighbor: so no first-in first-out tie between neighbors
  decides a deferred pixel, and every neighbor is lower or higher.
- Every higher neighbor deferred: a deferred pixel's queued and marker
  neighbors all lie below it.  No queued pixel reads its label, and it
  inserts no queued pixel, since those pop before it.  The queued
  pixels keep their relative order and their labels.
"""

from __future__ import annotations

import numpy as np

from .bat import between_class_variance
from .image import _fold, _fold_kernel, _mirror_pad, as_gray, check_same_shape

__all__ = [
    "SOBEL_MIN",
    "gradient_magnitude",
    "check_h_min",
    "h_minima",
    "regional_minima",
    "watershed_segment",
    "labels_to_mask",
    "mask_boundary",
]


SOBEL_MIN = 3  # the Sobel kernels' side: the smallest image side the gradient takes


# Sobel x is [1, 2, 1] down the columns times [-1, 0, 1] along the rows;
# Sobel y is its transpose.
_SOBEL_X = (_fold_kernel("sobel", (1, 2, 1), 1), _fold_kernel("sobel", (-1, 0, 1), 1))
_SOBEL_Y = _SOBEL_X[::-1]


def gradient_magnitude(image: np.ndarray) -> np.ndarray:
    """Per-pixel sqrt(Gx^2 + Gy^2) with 3x3 Sobel kernels, as float64.

    Mirror boundary extension; requires SOBEL_MIN pixels or more per axis.
    Both kernels reach one pixel on each axis, so the image is padded once
    and both run :func:`lcseg.image.separable_filter`'s fold on that copy.
    A uint8 image is filtered, squared and summed in int32, where
    |Gx|, |Gy| <= 1020 and Gx^2 + Gy^2 <= 2,080,800 are exact, and only the
    square root is float64; that is the float64 run's result bit for bit.
    Any other image runs the same steps in float64.
    """
    img = np.asarray(image)
    if img.ndim != 2 or min(img.shape) < SOBEL_MIN:
        raise ValueError(f"gradient_magnitude needs an image of at least {SOBEL_MIN}x{SOBEL_MIN}")
    padded = _mirror_pad(img, _SOBEL_X)
    gx = _fold(padded, *_SOBEL_X)
    gy = _fold(padded, *_SOBEL_Y)
    gx *= gx
    gy *= gy
    gx += gy
    return np.sqrt(gx, dtype=np.float64)


def _shifted4(a: np.ndarray, fill) -> tuple[np.ndarray, ...]:
    """The up, down, left and right 4-neighbor of every pixel of ``a``.

    Views into one copy of ``a`` padded with ``fill``, which stands for
    the neighbors outside the image.
    """
    p = np.pad(a, 1, constant_values=fill)
    return p[:-2, 1:-1], p[2:, 1:-1], p[1:-1, :-2], p[1:-1, 2:]


def _check_finite(surface: np.ndarray) -> None:
    # A NaN never compares equal, so h_minima would iterate forever and
    # regional_minima would make it a minimum of its own.
    if not np.isfinite(surface).all():
        raise ValueError("surface must be finite")


def _check_fixed_threshold(fixed_threshold: float | None) -> None:
    if fixed_threshold is not None and not 0 <= fixed_threshold <= 255:
        raise ValueError(f"fixed_threshold must be in 0..255, got {fixed_threshold}")


def check_h_min(h_min: float) -> None:
    """Raise ``ValueError`` unless the watershed depth ``h_min`` is finite and >= 0."""
    if not h_min >= 0:  # also rejects NaN, which would never converge
        raise ValueError("h_min must be non-negative")
    if h_min == np.inf:  # it would fill every pixel to inf
        raise ValueError("h_min must be finite")


# h_minima runs dense passes while more than this share of the pixels moved
# in the last one, then passes over the moved pixels' neighbourhoods only.
_FRONTIER_SHARE = 0.05


def h_minima(surface: np.ndarray, h: float) -> np.ndarray:
    """Fill every regional minimum shallower than depth ``h``.

    Morphological reconstruction by erosion of (surface + h) over
    surface, with the 4-connected structuring element: iterate
    R <- max(erode(R), surface) from R = surface + h until stable.
    ``h`` must pass :func:`check_h_min` and ``surface`` must be finite.

    The first passes cover the whole frame.  Once a pass moves no more
    than ``_FRONTIER_SHARE`` of the pixels, each later pass recomputes
    only the closed 4-neighbourhood of the pixels the previous one moved:
    the parallel form of Vincent's queue-based reconstruction (IEEE TIP
    2(2), 1993).  It is exact.  Any other pixel reads the same five
    values as in the previous pass, so it would compute the value it
    already holds.  Each pass reads the previous iterate before it
    writes, so every iterate equals the dense one, bit for bit.
    """
    check_h_min(h)
    surf = np.asarray(surface, dtype=np.float64)
    _check_finite(surf)
    if h == 0:
        return surf.copy()
    # A border of inf stands for the outside: it never lowers a minimum
    # and never moves.
    rec = np.pad(surf + h, 1, constant_values=np.inf)
    inner = rec[1:-1, 1:-1]
    while True:
        nxt = np.minimum(rec[:-2, 1:-1], rec[2:, 1:-1])
        np.minimum(nxt, rec[1:-1, :-2], out=nxt)
        np.minimum(nxt, rec[1:-1, 2:], out=nxt)
        np.minimum(nxt, inner, out=nxt)
        np.maximum(nxt, surf, out=nxt)
        moved = nxt != inner
        count = np.count_nonzero(moved)
        if count == 0:
            return nxt
        inner[...] = nxt
        if count <= _FRONTIER_SHARE * surf.size:
            break

    # Flat indices into the padded frame: the neighbours of p are p + steps.
    width = rec.shape[1]
    steps = (-width, -1, 1, width)
    value = rec.ravel()
    floor = np.pad(surf, 1).ravel()
    front = np.flatnonzero(np.pad(moved, 1))
    near = np.zeros(rec.shape, dtype=bool)  # the next pass's pixels
    flat_near = near.ravel()
    while front.size:
        flat_near[front] = True
        for step in steps:
            flat_near[front + step] = True
        # The border never moves, and its steps would leave the frame.
        near[0] = near[-1] = False
        near[:, 0] = near[:, -1] = False
        todo = np.flatnonzero(flat_near)
        flat_near[todo] = False
        old = value[todo]
        new = np.minimum(value[todo + steps[0]], old)
        for step in steps[1:]:
            np.minimum(new, value[todo + step], out=new)
        np.maximum(new, floor[todo], out=new)
        moved = new != old
        front = todo[moved]
        value[front] = new[moved]
    return inner.copy()


def regional_minima(surface: np.ndarray) -> tuple[np.ndarray, int]:
    """Label the 4-connected regional minima of ``surface``.

    A regional minimum is a connected plateau of equal value none of
    whose outer 4-neighbors is lower.  Components are numbered 1..K in
    row-major order of their first pixel; non-minimum pixels get 0.
    Returns the label array and K.  ``surface`` must be finite.

    Plateaus are assembled from runs: maximal stretches of equal value
    within one row, numbered 1..R in row-major order of their first
    pixel.  Two runs of equal value in adjacent rows that share a column
    belong to one plateau, and one link per such pair joins them: the
    link at the first shared column, where one of the two pixels starts
    its run.  Only the runs with a link enter the hook-and-jump
    labelling, which roots each plateau at its smallest run.  That run
    holds the plateau's row-major first pixel, so the roots are numbered
    in the required order.
    """
    surf = np.asarray(surface, dtype=np.float64)
    _check_finite(surf)
    h, w = surf.shape
    starts = np.ones((h, w), dtype=bool)  # the first pixel of its run
    np.not_equal(surf[:, 1:], surf[:, :-1], out=starts[:, 1:])
    run = np.cumsum(starts, dtype=np.int32)  # each flat pixel's run, 1..R
    runs = np.count_nonzero(starts)

    # The links, as pairs of run numbers, then as compact node numbers
    # 0..m-1 of the linked runs, kept in run order.
    touch = surf[:-1] == surf[1:]
    touch &= starts[:-1] | starts[1:]
    upper = np.flatnonzero(touch)
    a = run[upper]
    b = run[upper + w]
    linked = np.zeros(runs + 1, dtype=bool)
    linked[a] = True
    linked[b] = True
    node = np.flatnonzero(linked)  # node -> run
    compact = np.empty(runs + 1, dtype=np.intp)
    compact[node] = np.arange(node.size)
    a = compact[a]
    b = compact[b]

    # Hook the larger root of every link onto the smaller, then
    # pointer-jump to stars, until every link is internal.
    root = np.arange(node.size)
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
    node_root = node[root]  # each linked run's root run; the others are roots

    # A run with a strictly lower 4-neighbor sinks its plateau.  The roots
    # of the plateaus left standing are the minima.
    lower = np.zeros((h, w), dtype=bool)
    np.less(surf[1:], surf[:-1], out=lower[:-1])
    lower[1:] |= surf[:-1] < surf[1:]
    lower[:, :-1] |= surf[:, 1:] < surf[:, :-1]
    lower[:, 1:] |= surf[:, :-1] < surf[:, 1:]
    minimum = np.ones(runs + 1, dtype=bool)
    minimum[0] = False
    minimum[run[lower.ravel()]] = False
    minimum[node_root[~minimum[node]]] = False
    minimum[node[node_root != node]] = False
    count = int(np.count_nonzero(minimum))
    number = np.zeros(runs + 1, dtype=np.int32)
    number[minimum] = np.arange(1, count + 1, dtype=np.int32)
    number[node] = number[node_root]
    return number[run].reshape(h, w), count


def watershed_segment(surface: np.ndarray, h_min: float = 0.0) -> np.ndarray:
    """Marker-controlled priority flood of ``surface``, 4-connected.

    Contract, in full (an independent implementation following these
    rules reproduces the output exactly):

    1. The flooded surface is ``h_minima(surface, h_min)``, which
       rejects an ``h_min`` that is negative, NaN or infinite and a
       surface that is not finite.
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
    filled = h_minima(surf, h_min)
    markers, count = regional_minima(filled)
    h, w = filled.shape

    # Flat row-major lists with a one-pixel border: the 4 neighbors of p
    # are p + (up, left, right, down), with no bounds checks.  Labels are
    # -3 deferred (see the module docstring), -2 unqueued, -1 border,
    # 0 queued or ridge, and >0 basin.
    width = w + 2
    steps = up, left, right, down = -width, -1, 1, width
    padded = np.pad(np.where(markers > 0, markers, -2), 1, constant_values=-1).ravel()
    value = np.pad(filled, 1, constant_values=np.inf).ravel()
    deferred = _deferred(value, padded == -2, steps)
    padded[deferred] = -3  # never a claim, never queued, until the flood ends
    queued = np.flatnonzero(padded == -2)
    marker_pixels = np.flatnonzero(padded > 0)
    # Rule 4 at once: all candidates in scan order, first occurrence of each.
    seeds = (marker_pixels[:, None] + steps).ravel()
    seeds = seeds[padded[seeds] == -2]
    seeds = seeds[np.sort(np.unique(seeds, return_index=True)[1])]
    padded[seeds] = 0
    labels = padded.tolist()
    # Rule 3's queue as one FIFO list per distinct value of a queued pixel,
    # drained in increasing order (bucket_of[p] is p's list).  Exact, because
    # every component of a strict sublevel set holds a marker (a regional
    # minimum): all strictly lower neighbors of a pixel pop before it, so a
    # pop appends only to its own bucket or a later one, in (value,
    # insertion) order.
    values, rank = np.unique(value[queued], return_inverse=True)
    buckets = np.fromiter(([] for _ in values), dtype=object, count=len(values))
    slots = np.empty(len(value), dtype=object)
    slots[queued] = buckets[rank]
    bucket_of = slots.tolist()
    queued = queued.tolist()
    for q in seeds.tolist():
        bucket_of[q].append(q)

    # Rule 5 in one pass: each pop reads each neighbor once, and one branch
    # both counts its claim and queues it.  claim is 0 until a basin label
    # is seen, then that label, then -1 (sticky) once a second one appears.
    # A push writes only the neighbor it queues, never p or a neighbor still
    # to be read, so the reads and the appends are those rule 5 prescribes.
    # A deferred neighbor (-3) lies above p.  In the full queue it would
    # still read 0 or -2 here, and its own pop would insert no queued pixel,
    # so skipping it changes no queued pixel's label.
    popped = 0
    for bucket in buckets:
        for p in bucket:  # the bucket grows while it is drained
            claim = 0
            q = p + up
            lab = labels[q]
            if lab > 0:
                claim = lab
            elif lab == -2:
                labels[q] = 0
                bucket_of[q].append(q)
            q = p + left
            lab = labels[q]
            if lab > 0:
                if claim != lab:
                    claim = -1 if claim else lab
            elif lab == -2:
                labels[q] = 0
                bucket_of[q].append(q)
            q = p + right
            lab = labels[q]
            if lab > 0:
                if claim != lab:
                    claim = -1 if claim else lab
            elif lab == -2:
                labels[q] = 0
                bucket_of[q].append(q)
            q = p + down
            lab = labels[q]
            if lab > 0:
                if claim != lab:
                    claim = -1 if claim else lab
            elif lab == -2:
                labels[q] = 0
                bucket_of[q].append(q)
            if claim > 0:
                labels[p] = claim
        popped += len(bucket)
        bucket.clear()

    # Write back the queued pixels' labels, then decide the deferred ones.
    padded[queued] = [labels[p] for p in queued]
    settled = _settle_deferred(padded, value, deferred, steps)
    if count < 1 or len(marker_pixels) + popped + settled != h * w:
        raise RuntimeError(
            f"flood left pixels undecided: {count} markers, "
            f"{len(marker_pixels)} marker pixels + {popped} popped "
            f"+ {settled} deferred != {h * w} pixels"
        )
    return padded.reshape(h + 2, width)[1:-1, 1:-1].copy()


def _deferred(value: np.ndarray, unmarked: np.ndarray, steps) -> np.ndarray:
    """The deferred pixels of a flat padded surface, as a boolean mask.

    ``unmarked`` flags the non-marker image pixels and ``steps`` holds
    the flat offsets of the up, left, right and down neighbors.  Unmarked
    pixels with an equal neighbor are queued, and so is every unmarked
    pixel one strictly descending step below a queued one; the rest are
    deferred.
    """
    same = np.zeros(value.shape, dtype=bool)
    for step in steps[2:]:  # right and down: each adjacent pair once
        tie = value[:-step] == value[step:]
        same[:-step] |= tie
        same[step:] |= tie
    frontier = np.flatnonzero(same & unmarked)
    deferred = unmarked & ~same
    while frontier.size:  # one pass per descending step
        here = value[frontier]
        grown = []
        for step in steps:
            q = frontier + step
            below = deferred[q]
            below &= value[q] < here
            q = q[below]
            deferred[q] = False
            grown.append(q)
        frontier = np.concatenate(grown)
    return deferred


def _settle_deferred(labels: np.ndarray, value: np.ndarray, deferred: np.ndarray, steps) -> int:
    """Label the deferred pixels bottom-up, in place; returns how many.

    A pass takes the deferred pixels whose strictly lower deferred
    neighbors are all decided (Kahn order).  Each gets the one distinct
    basin label among its 4 neighbors, or 0 for none or several: its
    lower neighbors are final and its higher ones still read -3, as in
    the full flood when it pops.  ``steps`` is as for :func:`_deferred`.
    """
    # Deferred pixels have no equal neighbor, so each deferred pair is
    # ordered; count every deferred pixel's strictly lower deferred ones.
    waiting = np.zeros(value.shape, dtype=np.int8)
    for step in steps[2:]:  # right and down: each adjacent pair once
        pair = deferred[:-step] & deferred[step:]
        first_lower = value[:-step] < value[step:]
        waiting[step:] += pair & first_lower
        waiting[:-step] += pair & ~first_lower
    frontier = np.flatnonzero(deferred & (waiting == 0))
    none = np.iinfo(labels.dtype).max
    settled = 0
    while frontier.size:
        settled += frontier.size
        top = np.zeros(frontier.size, dtype=labels.dtype)
        low = np.full(frontier.size, none, dtype=labels.dtype)
        ready = []
        for step in steps:
            q = frontier + step
            lab = labels[q]
            np.maximum(top, lab, out=top)
            np.minimum(low, np.where(lab > 0, lab, none), out=low)
            # An undecided neighbor is a higher deferred one: one of its
            # lower neighbors is now decided.
            q = q[lab == -3]
            waiting[q] -= 1
            ready.append(q[waiting[q] == 0])
        # One distinct label iff the largest and smallest positive agree.
        labels[frontier] = np.where(top == low, top, 0)
        frontier = np.concatenate(ready)
    return settled


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
    basin is foreground.  With ``fixed_threshold`` set, which must lie
    in 0..255, a basin is foreground iff its mean is >= that value.

    Ridge pixels inherit the majority class of their 4-connected basin
    neighbors; ties (including no basin neighbor) go to foreground.
    """
    _check_fixed_threshold(fixed_threshold)
    lab = np.asarray(labels)
    img = as_gray(image)
    check_same_shape(lab, img, "labels vs image")
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

    # Side of each pixel: +1 foreground basin, -1 background basin, 0 ridge;
    # a ridge pixel's vote sums its 4 neighbors' sides (0 outside the image).
    ballot = np.where(foreground, 1, -1).astype(np.int8)
    ballot[0] = 0
    side = ballot[lab]
    mask = side > 0
    vote = sum(_shifted4(side, 0))
    ridge = lab == 0
    mask[ridge] = vote[ridge] >= 0
    return mask


def mask_boundary(mask: np.ndarray) -> np.ndarray:
    """Inner boundary: foreground pixels touching background 4-wise.

    The image border counts as background, so foreground pixels on the
    border are always boundary.
    """
    m = np.asarray(mask, dtype=bool)
    up, down, left, right = _shifted4(m, False)
    return m & ~(up & down & left & right)
