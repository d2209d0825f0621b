"""Gradient-magnitude markers, h-minima suppression and the watershed cut.

The markers are the regional minima of a surface, in the pipeline the
rescaled Sobel gradient magnitude of the enhanced frame, after h-minima
suppression.  The watershed is the cut of the minimum spanning forest
rooted in those markers, on the 4-adjacency graph of the gray frame
whose edges weigh the intensity difference of their pixels (Cousty,
Bertrand, Najman & Couprie, "Watershed cuts: minimum spanning forests
and the drop of water principle", IEEE TPAMI 31(8), 2009).  Its exact,
deterministic contract is spelled out in :func:`watershed_segment`.

The label map convention is 1..K for the catchment basins: every pixel
belongs to one basin, and no pixel is a ridge.
"""

from __future__ import annotations

import numpy as np

from .image import as_gray, check_same_shape, mirror_pad

__all__ = [
    "SOBEL_MIN",
    "gradient_magnitude",
    "check_threshold",
    "check_h_min",
    "h_minima",
    "regional_minima",
    "watershed_segment",
    "labels_to_mask",
    "mask_boundary",
]


SOBEL_MIN = 3  # the Sobel kernels' side: the smallest image side the gradient takes


def gradient_magnitude(image: np.ndarray) -> np.ndarray:
    """Per-pixel sqrt(Gx^2 + Gy^2) with 3x3 Sobel kernels, as float64.

    Mirror boundary extension; requires SOBEL_MIN pixels or more per axis.
    The image is mirror-padded once, straight into its working dtype, and
    both kernels run as a stencil on that copy: each sums down the
    columns, then along the rows, adding in the order of
    :func:`lcseg.image.filter_padded`'s fold, with the outer samples'
    difference in place of their sum for taps (-1, 0, 1).  A uint8
    image is filtered, squared and summed in int32, where
    |Gx|, |Gy| <= 1020 and Gx^2 + Gy^2 <= 2,080,800 are exact, and only the
    square root is float64; that is the float64 run's result bit for bit.
    Any other image runs the same steps in float64.
    """
    img = np.asarray(image)
    if img.ndim != 2 or min(img.shape) < SOBEL_MIN:
        raise ValueError(f"gradient_magnitude needs an image of at least {SOBEL_MIN}x{SOBEL_MIN}")
    p = mirror_pad(img, 1, np.int32 if img.dtype == np.uint8 else np.float64)
    s = p[:-2] + p[2:]
    s += 2 * p[1:-1]
    gx = s[:, 2:] - s[:, :-2]
    d = np.subtract(p[2:], p[:-2], out=s)
    gy = d[:, :-2] + d[:, 2:]
    gy += 2 * d[:, 1:-1]
    gx *= gx
    gy *= gy
    gx += gy
    return np.sqrt(gx, dtype=np.float64)


def _check_finite(surface: np.ndarray) -> None:
    # A NaN never compares equal, so h_minima would iterate forever and
    # regional_minima would make it a minimum of its own.
    if not np.isfinite(surface).all():
        raise ValueError("surface must be finite")


def check_threshold(threshold: float) -> None:
    """Raise ``ValueError`` unless the basin split ``threshold`` lies in 0..255."""
    if not 0 <= threshold <= 255:  # also rejects NaN
        raise ValueError(f"threshold must be in 0..255, got {threshold}")


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
    writes, so every iterate equals the dense one, bit for bit.  The
    flat indices are ``intp``; only returned label maps are int32.
    """
    check_h_min(h)
    surf = np.asarray(surface, dtype=np.float64)
    _check_finite(surf)
    if h == 0:
        return surf.copy()
    # A border of inf stands for the outside: it never lowers a minimum
    # and never moves.
    rec = np.full((surf.shape[0] + 2, surf.shape[1] + 2), np.inf)
    inner = rec[1:-1, 1:-1]
    np.add(surf, h, out=inner)
    nxt, moved = np.empty(surf.shape), np.empty(surf.shape, dtype=bool)
    while True:
        np.minimum(rec[:-2, 1:-1], rec[2:, 1:-1], out=nxt)
        np.minimum(nxt, rec[1:-1, :-2], out=nxt)
        np.minimum(nxt, rec[1:-1, 2:], out=nxt)
        np.minimum(nxt, inner, out=nxt)
        np.maximum(nxt, surf, out=nxt)
        np.not_equal(nxt, inner, out=moved)
        count = np.count_nonzero(moved)
        if count == 0:
            return nxt
        inner[...] = nxt
        if count <= _FRONTIER_SHARE * surf.size:
            break
    # Flat indices into the padded frame: pixel p = i * w + j of the frame
    # is (i + 1) * (w + 2) + j + 1 = p + 2 * i + w + 3 there, and the
    # neighbours of a padded index are it + steps.
    front = np.flatnonzero(moved)
    w = surf.shape[1]
    front += 2 * (front // w) + w + 3
    del nxt, moved  # the frontier passes need neither

    steps = (-(w + 2), -1, 1, w + 2)
    value = rec.ravel()
    floor = np.zeros(rec.shape)  # the border is never read
    floor[1:-1, 1:-1] = surf
    floor = floor.ravel()
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
        moved = np.flatnonzero(new != old)
        front = todo[moved]
        value[front] = new[moved]
    return inner.copy()


def _jump(parent: np.ndarray) -> np.ndarray:
    """Pointer-jump a forest of parent links until each node links its root."""
    while True:
        up = parent[parent]
        if np.array_equal(up, parent):
            return up
        parent = up


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
    in the required order.  Run and node ids are ``intp``; only the
    returned label map is int32.
    """
    surf = np.asarray(surface, dtype=np.float64)
    _check_finite(surf)
    h, w = surf.shape
    starts = np.ones((h, w), dtype=bool)  # the first pixel of its run
    np.not_equal(surf[:, 1:], surf[:, :-1], out=starts[:, 1:])
    run = np.cumsum(starts, dtype=np.intp)  # each flat pixel's run, 1..R
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
        cross = np.flatnonzero(ra != rb)
        if not cross.size:
            break
        a, b, ra, rb = a[cross], b[cross], ra[cross], rb[cross]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        root = _jump(root)
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
    # A mask, not indices: most pixels have a lower neighbour, so their
    # indices would take a frame of intp.
    minimum[run[lower.ravel()]] = False
    minimum[node_root[np.flatnonzero(~minimum[node])]] = False
    minimum[node[np.flatnonzero(node_root != node)]] = False
    roots = np.flatnonzero(minimum)
    count = roots.size
    number = np.zeros(runs + 1, dtype=np.int32)
    number[roots] = np.arange(1, count + 1, dtype=np.int32)
    number[node] = number[node_root]
    return number[run].reshape(h, w), count


def watershed_segment(surface: np.ndarray, image: np.ndarray, h_min: float = 0.0) -> np.ndarray:
    """Watershed cut of ``image`` relative to the markers of ``surface``, 4-connected.

    Contract, in full (an independent implementation following these
    rules reproduces the output exactly):

    1. The marker surface is ``h_minima(surface, h_min)``, which rejects
       an ``h_min`` that is negative, NaN or infinite and a surface that
       is not finite.
    2. Markers are its 4-connected regional minima, labeled 1..K in
       row-major order of each component's first pixel.
    3. Edges are the 4-adjacent pixel pairs, numbered horizontal pairs
       first, then vertical pairs, each in row-major order.  An edge
       weighs |I(p) - I(q)| on the gray image I, which has the
       surface's shape.
    4. The pixels of one marker component start as one tree, every other
       pixel as a tree of its own.  Edges are taken in increasing
       (weight, number) order; an edge joins its two trees unless they
       are one tree or both hold a marker.
    5. Every pixel takes the label of its tree's marker.

    That is the cut of the minimum spanning forest rooted in the markers
    (Cousty, Bertrand, Najman & Couprie, IEEE TPAMI 31(8), 2009).  No
    pixel is a ridge: each basin is 4-connected and holds one marker
    component.
    """
    surf = np.asarray(surface, dtype=np.float64)
    if surf.ndim != 2:
        raise ValueError("expected a 2-D surface")
    img = as_gray(image)
    check_same_shape(img, surf, "image vs surface")
    markers, count = regional_minima(h_minima(surf, h_min))
    if count < 1:
        raise RuntimeError("no markers: the cut would leave every pixel undecided")
    return _cut(img, markers, count)


def _cut(img: np.ndarray, markers: np.ndarray, count: int) -> np.ndarray:
    """Rule 4's forest by Borůvka rounds, with the markers as sinks.

    The edge order is total, so the forest is the one minimum spanning
    tree of the graph whose marker pixels are contracted into one root.
    Borůvka's rounds build that tree: each component that holds no
    marker joins the tree of its cheapest edge.  Marked components never
    pick, so every pick leads towards a marker or is one edge picked
    from both ends, which roots at its smaller end.  Index and component
    ids are ``intp``, which numpy gathers with uncast; only the returned
    label map is int32.  Selections gather by ``np.flatnonzero`` indices:
    with a data-dependent mask, that is about 5x faster than a boolean
    mask under numpy 2.4.
    """
    h, w = img.shape
    f = img.ravel()
    # Edge weights of the flat pairs (p, p + 1) and (p, p + w).  The
    # pairs (p, p + 1) with p at a row end are no edge.
    dx = np.maximum(f[1:], f[:-1])
    dx -= np.minimum(f[1:], f[:-1])
    dy = np.maximum(f[w:], f[:-w])
    dy -= np.minimum(f[w:], f[:-w])
    comp, size = _first_round(dx, dy, markers, count)
    a, b = _live_edges(comp, dx, dy, count)

    # Later rounds: each unmarked component takes its cheapest live edge.
    link = np.arange(size)
    while a.size:
        free, other = _cheapest(a, b, size, count)
        link[free] = other
        roots = free[np.flatnonzero((link[other] == free) & (free < other))]
        link[roots] = roots
        link = _jump(link)
        a = link[a]
        b = link[b]
        live = np.flatnonzero((a != b) & ((a >= count) | (b >= count)))
        a = a[live]
        b = b[live]
    return np.add(link[comp], 1, dtype=np.int32).reshape(h, w)


def _first_round(dx: np.ndarray, dy: np.ndarray, markers: np.ndarray, count: int) -> tuple[np.ndarray, int]:
    """Round 1 on pixels: each pixel's component id, the markers 0..K-1 and
    then the unmarked roots in pixel order, and the number of components."""
    n, w = markers.size, markers.shape[1]
    # key = weight * 4 + side, with sides left 0, right 1, up 2 and down 3 in
    # the order of their edges' numbers: the least key is the cheapest edge.
    key = np.full(n, 0xFFFF, dtype=np.uint16)
    k = dx.astype(np.uint16) << 2
    k[w - 1 :: w] = 0xFFFF
    np.minimum(key[1:], k, out=key[1:])
    np.minimum(key[:-1], k | 1, out=key[:-1])
    k = dy.astype(np.uint16) << 2
    np.minimum(key[w:], k | 2, out=key[w:])
    np.minimum(key[:-w], k | 3, out=key[:-w])
    # Nodes 0..n-1 are the pixels and n..n+K-1 the markers, which root
    # their pixels.  A 1x1 image's one pixel is a marker.
    parent = np.empty(n + count, dtype=np.intp)
    pick = parent[:n]
    np.take(np.array([-1, 1, -w, w]), key & 3, out=pick)
    pixel = np.arange(n)
    pick += pixel
    marked = np.flatnonzero(markers)
    parent[marked] = markers.ravel()[marked] + (n - 1)
    parent[n:] = np.arange(n, n + count)
    # A mutual pick roots at its smaller end: no other pixel picks itself.
    mutual = (parent[pick] == pixel) & (pixel < pick)
    roots = np.flatnonzero(mutual)
    pick[roots] = roots
    del key, k, pick, pixel, marked, mutual  # before the jump copies parent
    parent = _jump(parent)

    node = np.empty(n + count, dtype=np.intp)
    node[n:] = np.arange(count)
    node[roots] = np.arange(count, count + roots.size)
    return node[parent[:n]], count + roots.size


def _cheapest(a: np.ndarray, b: np.ndarray, size: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Each unmarked component on a live edge, and the far end of its cheapest one."""
    rank = np.arange(a.size, dtype=np.int32)  # np.minimum.at is faster on int32
    cheapest = np.full(size, a.size, dtype=np.int32)
    np.minimum.at(cheapest, a, rank)
    np.minimum.at(cheapest, b, rank)
    free = np.flatnonzero(cheapest[count:] < a.size) + count
    edge = cheapest[free]
    return free, a[edge] ^ b[edge] ^ free  # the end that is not free


def _live_edges(comp: np.ndarray, dx: np.ndarray, dy: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The end components of the live edges after round 1, in (weight, number) order."""
    n, w = comp.size, comp.size - dy.size  # dy weighs the n - w vertical pairs
    # Edge e < n - 1 is the pair (e, e + 1), edge n - 1 + p the pair (p, p + w).
    live = np.empty(2 * n - 1 - w, dtype=bool)
    for step, part in ((1, live[: n - 1]), (w, live[n - 1 :])):
        a, b = comp[:-step], comp[step:]
        np.logical_and(a != b, (a >= count) | (b >= count), out=part)
    live[w - 1 : n - 1 : w] = False  # a row end and the next row's start
    a = np.flatnonzero(live)
    a = a[np.argsort(np.concatenate((dx, dy))[a], kind="stable")]
    down = a >= n - 1
    a -= (n - 1) * down
    b = (w - 1) * down
    b += 1
    b += a
    a = comp[a]
    b = comp[b]
    return a, b


def labels_to_mask(labels: np.ndarray, image: np.ndarray, threshold: float) -> np.ndarray:
    """Classify basins into tissue (foreground) and pores (background).

    A basin is foreground iff its mean over ``image`` is > ``threshold``
    (the upper class {v > t} that the bat's Otsu objective scores), which
    must lie in 0..255.  ``labels`` must hold basin ids >= 1.
    """
    check_threshold(threshold)
    lab = np.asarray(labels)
    img = as_gray(image)
    check_same_shape(lab, img, "labels vs image")
    if lab.min() < 1:
        raise ValueError("labels must be basin ids >= 1")
    flat = lab.astype(np.intp, casting="safe", copy=False).ravel()  # as bincount reads it
    k = int(flat.max())
    counts = np.bincount(flat, minlength=k + 1)
    sums = np.bincount(flat, weights=img.ravel(), minlength=k + 1)
    means = sums / np.maximum(counts, 1)  # ids no pixel holds are never read
    return (means > threshold)[flat].reshape(lab.shape)


def mask_boundary(mask: np.ndarray) -> np.ndarray:
    """Inner boundary: foreground pixels touching background 4-wise.

    The image border counts as background, so foreground pixels on the
    border are always boundary.
    """
    m = np.asarray(mask, dtype=bool)
    out = m.copy()  # border pixels keep their value: boundary iff foreground
    out[1:-1, 1:-1] &= ~(m[:-2, 1:-1] & m[2:, 1:-1] & m[1:-1, :-2] & m[1:-1, 2:])
    return out
