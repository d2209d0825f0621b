import hashlib
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lcseg.watershed
from lcseg.bat import otsu_threshold
from lcseg.config import PipelineConfig, check_h_min
from lcseg.histeq import histogram
from lcseg.image import PhantomSpec, generate_phantom
from lcseg.image import scale_to_255
from lcseg.wavelet import enhance_scales
from lcseg.watershed import (
    gradient_magnitude,
    h_minima,
    labels_to_mask,
    mask_boundary,
    regional_minima,
    watershed_segment,
)

NEIGHBORS = ((-1, 0), (0, -1), (0, 1), (1, 0))


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def oracle_sobel(image):
    """3x3 Sobel with explicit loops and mirror indexing (test oracle)."""
    kx = [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]]
    img = np.asarray(image, dtype=float)
    h, w = img.shape

    def m(i, n):
        if i < 0:
            return -i
        if i > n - 1:
            return 2 * (n - 1) - i
        return i

    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            gx = gy = 0.0
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    v = img[m(y + dy, h), m(x + dx, w)]
                    gx += kx[dy + 1][dx + 1] * v
                    gy += kx[dx + 1][dy + 1] * v
            out[y, x] = np.hypot(gx, gy)
    return out


def oracle_h_minima(surface, h):
    """Fixpoint reconstruction-by-erosion with plain loops (test oracle)."""
    surf = np.asarray(surface, dtype=float)
    rows, cols = surf.shape
    rec = surf + h
    changed = True
    while changed:
        changed = False
        nxt = rec.copy()
        for y in range(rows):
            for x in range(cols):
                lowest = rec[y, x]
                for dy, dx in NEIGHBORS:
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < rows and 0 <= nx < cols:
                        lowest = min(lowest, rec[ny, nx])
                value = max(lowest, surf[y, x])
                if value != nxt[y, x]:
                    nxt[y, x] = value
                    changed = True
        rec = nxt
    return rec


def oracle_minima(surface):
    """Regional minima via union-find over equal-value links (test oracle)."""
    surf = np.asarray(surface, dtype=float)
    h, w = surf.shape
    parent = list(range(h * w))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for y in range(h):
        for x in range(w):
            for dy, dx in ((0, 1), (1, 0)):
                ny, nx = y + dy, x + dx
                if ny < h and nx < w and surf[ny, nx] == surf[y, x]:
                    union(y * w + x, ny * w + nx)
    has_lower = set()
    for y in range(h):
        for x in range(w):
            for dy, dx in NEIGHBORS:
                ny, nx = y + dy, x + dx
                if 0 <= ny < h and 0 <= nx < w and surf[ny, nx] < surf[y, x]:
                    has_lower.add(find(y * w + x))
    roots = []
    for i in range(h * w):
        r = find(i)
        if r not in has_lower and r not in roots:
            roots.append(r)  # ordered by row-major first pixel
    labels = np.zeros((h, w), dtype=np.int32)
    for k, r in enumerate(roots, start=1):
        for i in range(h * w):
            if find(i) == r:
                labels[i // w, i % w] = k
    return labels, len(roots)


def oracle_cut(surface, image, h_min=0.0):
    """Kruskal's algorithm with the marker rule, one edge at a time (oracle).

    Union-find over the 4-adjacent pixel pairs of ``image``, numbered
    horizontal pairs first, then vertical pairs, each row-major, and
    taken in (|difference|, number) order.  Each marker component of
    ``surface`` starts as one tree; an edge is skipped when its two trees
    both hold a marker.
    """
    filled = oracle_h_minima(surface, h_min) if h_min > 0 else np.asarray(
        surface, dtype=float
    )
    markers, _ = oracle_minima(filled)
    img = np.asarray(image, dtype=int)
    h, w = img.shape
    parent = list(range(h * w))
    tag = [int(v) for v in markers.ravel()]  # a root's marker label, or 0

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    first = {}
    for p, t in enumerate(tag):
        if t:
            parent[p] = first.setdefault(t, p)
    edges = []
    for y in range(h):
        for x in range(w - 1):
            edges.append((abs(img[y, x] - img[y, x + 1]), len(edges), y * w + x, y * w + x + 1))
    for y in range(h - 1):
        for x in range(w):
            edges.append((abs(img[y, x] - img[y + 1, x]), len(edges), y * w + x, y * w + x + w))
    for _, _, p, q in sorted(edges):
        rp, rq = find(p), find(q)
        if rp == rq or (tag[rp] and tag[rq]):
            continue
        parent[rq] = rp
        tag[rp] = tag[rp] or tag[rq]
    return np.array([tag[find(p)] for p in range(h * w)], dtype=np.int32).reshape(h, w)


def oracle_labels_to_mask(labels, image, threshold):
    """Basin classification with loops (oracle).

    Basin means are summed pixel by pixel in row-major order; a basin is
    foreground iff its mean is > ``threshold``.
    """
    lab = np.asarray(labels)
    img = np.asarray(image)
    h, w = lab.shape
    sums, counts = {}, {}
    for y in range(h):
        for x in range(w):
            k = int(lab[y, x])
            sums[k] = sums.get(k, 0.0) + float(img[y, x])
            counts[k] = counts.get(k, 0) + 1
    mask = np.zeros((h, w), dtype=bool)
    for y in range(h):
        for x in range(w):
            k = int(lab[y, x])
            mask[y, x] = sums[k] / counts[k] > threshold
    return mask


# ---------------------------------------------------------------------------
# Gradient magnitude
# ---------------------------------------------------------------------------

def test_gradient_constant_zero():
    img = np.full((8, 8), 93, dtype=np.uint8)
    assert not gradient_magnitude(img).any()


def test_gradient_vertical_step():
    img = np.zeros((8, 8), dtype=np.uint8)
    img[:, 4:] = 255
    g = gradient_magnitude(img)
    assert np.allclose(g[:, 3], 4 * 255.0)
    assert np.allclose(g[:, 4], 4 * 255.0)
    assert not g[:, :2].any()
    assert not g[:, 6:].any()
    assert np.abs(g - oracle_sobel(img)).max() <= 1e-9


def test_gradient_diagonal_ramp():
    ys, xs = np.mgrid[0:16, 0:16]
    img = (ys + xs).astype(np.uint8)  # max 30, no clipping
    g = gradient_magnitude(img)
    interior = g[2:-2, 2:-2]
    assert np.allclose(interior, np.hypot(8.0, 8.0))
    assert np.abs(g - oracle_sobel(img)).max() <= 1e-9


def test_gradient_random_matches_oracle():
    rng = np.random.default_rng(6)
    img = rng.integers(0, 256, size=(9, 7), dtype=np.uint8)
    assert np.abs(gradient_magnitude(img) - oracle_sobel(img)).max() <= 1e-9
    # Non-integer input: the sums run in another order than the oracle's,
    # so only rounding in the last bits may separate the two.
    flt = rng.normal(100.0, 30.0, size=(9, 7))
    assert np.abs(gradient_magnitude(flt) - oracle_sobel(flt)).max() <= 1e-9


# 300 examples, or more under a profile that asks for more.
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(
    shape=st.tuples(st.integers(3, 40), st.integers(3, 40)),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_gradient_of_uint8_equals_float64_bit_for_bit(shape, seed):
    """The int32 sums and squares of a uint8 frame give the float64 run's bits."""
    img = np.random.default_rng(seed).integers(0, 256, size=shape, dtype=np.uint8)
    got = gradient_magnitude(img)
    assert got.dtype == np.float64
    assert got.tobytes() == gradient_magnitude(img.astype(np.float64)).tobytes()


SOBEL_SMOOTH, SOBEL_DIFF = (1.0, 2.0, 1.0), (-1.0, 0.0, 1.0)


def _fold3(p, taps):
    """One 3-tap pass down the columns of ``p``, dropping its first and
    last rows, added in the fold's order: the centre tap times the centre
    sample, then the outer tap times the sum (symmetric taps) or the
    difference (antisymmetric taps) of the own and the mirrored sample
    (vectorised float64 test oracle)."""
    own, centre, mirrored = p[:-2], p[1:-1], p[2:]
    pair = own + mirrored if taps[0] == taps[2] else own - mirrored
    return taps[1] * centre + taps[0] * pair


# 300 examples, or more under a profile that asks for more.
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(
    shape=st.tuples(st.integers(3, 30), st.integers(3, 30)),
    seed=st.integers(0, 2 ** 32 - 1),
    scale=st.one_of(st.none(), st.floats(-3.0, 6.0)),
)
def test_gradient_adds_in_the_separable_filters_order(shape, seed, scale):
    """The stencil's sums are the fold's, bit for bit: uint8 frames
    (``scale`` None) and float64 frames of sigma 10**scale."""
    rng = np.random.default_rng(seed)
    if scale is None:
        img = rng.integers(0, 256, size=shape, dtype=np.uint8)
    else:
        img = rng.normal(0.0, 10.0 ** scale, size=shape)
    p = np.pad(img.astype(np.float64), 1, mode="reflect")
    sx = _fold3(_fold3(p, SOBEL_SMOOTH).T, SOBEL_DIFF).T
    sy = _fold3(_fold3(p, SOBEL_DIFF).T, SOBEL_SMOOTH).T
    assert gradient_magnitude(img).tobytes() == np.sqrt(sx * sx + sy * sy).tobytes()


def _peak_frames(call, *args):
    """Peak memory traced during ``call(*args)``, in float64 frames of
    the first argument's size."""
    tracemalloc.start()
    try:
        call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (np.size(args[0]) * 8)


def test_gradient_pads_once_and_makes_few_float_frames():
    """Peak traced memory of ``gradient_magnitude`` on a 256x256 uint8
    frame, in float64 frames: one int32 padded copy, the int32 column
    sums (the difference reuses them), the two int32 gradients and the
    float64 result come to 3.14; two float64 filter calls took 6.05."""
    img = np.random.default_rng(31).integers(0, 256, size=(256, 256), dtype=np.uint8)
    assert _peak_frames(gradient_magnitude, img) <= 3.5


def test_gradient_rejects_tiny_images():
    with pytest.raises(ValueError):
        gradient_magnitude(np.zeros((2, 5), dtype=np.uint8))


# ---------------------------------------------------------------------------
# h-minima
# ---------------------------------------------------------------------------

def test_h_minima_rejects_negative_and_nan_depth():
    surf = np.arange(16.0).reshape(4, 4)
    for h in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="non-negative"):
            h_minima(surf, h)
        with pytest.raises(ValueError, match="non-negative"):
            watershed_segment(surf, surf.astype(np.uint8), h)


def test_h_minima_rejects_infinite_depth():
    # An infinite depth would fill every pixel to inf, which no later stage takes.
    surf = np.arange(16.0).reshape(4, 4)
    with pytest.raises(ValueError, match="h_min must be finite"):
        h_minima(surf, np.inf)
    with pytest.raises(ValueError, match="h_min must be finite"):
        watershed_segment(surf, surf.astype(np.uint8), np.inf)
    with pytest.raises(ValueError, match="h_min must be finite"):
        check_h_min(np.inf)
    with pytest.raises(ValueError, match="h_min must be finite"):
        PipelineConfig(h_min=np.inf)
    check_h_min(1e300)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("h", [0.0, 1.0])
def test_marker_extraction_rejects_non_finite_surface(bad, h):
    # A NaN never compares equal: h_minima used to iterate forever on this
    # surface, and regional_minima made the NaN pixel a minimum of its own.
    surf = np.zeros((5, 5))
    surf[2, 2] = bad
    with pytest.raises(ValueError, match="surface must be finite"):
        h_minima(surf, h)
    with pytest.raises(ValueError, match="surface must be finite"):
        regional_minima(surf)
    with pytest.raises(ValueError, match="surface must be finite"):
        watershed_segment(surf, np.zeros(surf.shape, dtype=np.uint8), h)


def _benchmark_frame_and_surface():
    """The enhanced 256x256 (32, 10) sigma=20 phantom frame and its
    rescaled gradient, the marker surface the pipeline takes."""
    img, _ = generate_phantom(PhantomSpec(256, 256, 32, 10, 20.0, 7))
    cfg = PipelineConfig()
    frame = enhance_scales(img, cfg.wavelet_levels, cfg.kept_scales)
    return frame, scale_to_255(gradient_magnitude(frame))


def test_h_minima_reuses_its_pass_buffers():
    """Peak traced memory of ``h_minima`` at depth 5 on the benchmark
    surface, in float64 frames.  The dense passes share one buffer, freed
    before the frontier passes, so the padded iterate, the padded floor
    the frontier reads and the result come to 3.16; a fresh buffer per
    dense pass, the last kept to the end, took 4.27."""
    _, surf = _benchmark_frame_and_surface()
    assert _peak_frames(h_minima, surf, 5.0) <= 3.5


def test_h_minima_zero_is_identity():
    rng = np.random.default_rng(0)
    surf = rng.uniform(0, 100, size=(6, 6))
    assert np.array_equal(h_minima(surf, 0.0), surf)


def test_h_minima_profile_example():
    surf = np.full((3, 5), 5.0)
    surf[1] = [5, 1, 5, 4, 5]
    out = h_minima(surf, 2.0)
    # depth-1 dip at value 4 fills to 5; depth-4 dip at 1 rises to 3
    assert out[1, 3] == 5.0
    assert out[1, 1] == 3.0
    assert np.array_equal(out, oracle_h_minima(surf, 2.0))


def test_h_minima_huge_h_matches_oracle():
    rng = np.random.default_rng(1)
    surf = rng.uniform(0, 50, size=(7, 7))
    big = 1000.0
    assert np.array_equal(h_minima(surf, big), oracle_h_minima(surf, big))


def test_h_minima_random_matches_oracle():
    rng = np.random.default_rng(2)
    for _ in range(5):
        surf = rng.integers(0, 10, size=(8, 8)).astype(float)
        h = float(rng.integers(1, 5))
        assert np.array_equal(h_minima(surf, h), oracle_h_minima(surf, h))


def test_h_minima_reconstruction_properties():
    rng = np.random.default_rng(3)
    surf = rng.integers(0, 40, size=(10, 10)).astype(float)
    out = h_minima(surf, 6.0)
    # bracketed between the surface and the lifted marker
    assert (out >= surf).all()
    assert (out <= surf + 6.0).all()
    # filling can only merge or remove minima, never create them
    _, k_before = regional_minima(surf)
    _, k_after = regional_minima(out)
    assert k_after <= k_before
    assert np.array_equal(out, oracle_h_minima(surf, 6.0))


# ---------------------------------------------------------------------------
# Regional minima
# ---------------------------------------------------------------------------

def test_regional_minima_matches_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        surf = rng.integers(0, 6, size=(8, 8)).astype(float)
        got, k_got = regional_minima(surf)
        want, k_want = oracle_minima(surf)
        assert k_got == k_want
        assert np.array_equal(got, want)



# The last pixel of row 0 equals the first of row 1: adjacent in row-major
# order, not 4-adjacent, so they are two components.  In the first both are
# minima; in the second only (0, 2) is, as (1, 0) has the lower (1, 1).
ROW_WRAP = {
    "both_minima": (
        np.array([[5, 5, 0], [0, 5, 5]], dtype=float),
        np.array([[0, 0, 1], [2, 0, 0]], dtype=np.int32),
    ),
    "one_minimum": (
        np.array([[5, 5, 1], [1, 0, 5]], dtype=float),
        np.array([[0, 0, 1], [0, 2, 0]], dtype=np.int32),
    ),
}


@pytest.mark.parametrize("name", sorted(ROW_WRAP))
def test_regional_minima_keeps_row_end_and_next_row_start_apart(name):
    surf, want = ROW_WRAP[name]
    got, k = regional_minima(surf)
    assert type(k) is int and got.dtype == np.int32
    assert k == want.max()
    assert np.array_equal(got, want)


def _phantom_frame():
    return generate_phantom(PhantomSpec(32, 32, 32, 10, 20.0, 7))[0]


def _phantom_gradient():
    return scale_to_255(gradient_magnitude(_phantom_frame()))


def _enhanced_frame(sigma):
    img, _ = generate_phantom(PhantomSpec(32, 32, 32, 10, sigma, 7))
    cfg = PipelineConfig()
    return enhance_scales(img, cfg.wavelet_levels, cfg.kept_scales)


def _enhanced_gradient(sigma):
    """Sobel gradient of the IUWT-enhanced phantom, as the pipeline takes it.

    h_minima takes more passes on it, most of them moving few pixels.
    """
    return scale_to_255(gradient_magnitude(_enhanced_frame(sigma)))


def _heavy_ties():
    return np.random.default_rng(30).integers(0, 3, size=(24, 24)).astype(float)


def _serpentine():
    """A one-pixel-wide plateau winding through the top 15 rows.

    Walls of mixed heights separate its runs; rough ground below it
    holds the other minima, so the watershed has basins to split.
    """
    rng = np.random.default_rng(31)
    surf = rng.integers(1, 7, size=(21, 21)).astype(float)
    surf[:15:2] = 0.0
    for row in range(1, 15, 2):
        surf[row, -1 if row % 4 == 1 else 0] = 0.0
    return surf


def _checkerboard():
    ys, xs = np.mgrid[0:16, 0:16]
    return ((ys + xs) % 2).astype(float)


def _wide_shelf():
    """A flat shelf 25 pixels wide on the ramps between two pit columns.

    Its 600 pixels are one plateau of equal values between the two pits,
    joined by edges of weight 0 as the surface's own frame.
    """
    xs = np.arange(40.0)
    return np.tile(np.minimum(np.minimum(xs, 2.0 * (39.0 - xs)), 10.0), (24, 1))


def _all_distinct():
    """A random permutation of 0..1599: no two pixels share a value."""
    return np.random.default_rng(32).permutation(1600).reshape(40, 40).astype(float)


LARGE_SURFACES = {
    "phantom_gradient": (_phantom_gradient, PipelineConfig().h_min),
    "enhanced_gradient_s0": (partial(_enhanced_gradient, 0.0), PipelineConfig().h_min),
    "enhanced_gradient_s20": (partial(_enhanced_gradient, 20.0), PipelineConfig().h_min),
    "heavy_ties": (_heavy_ties, 0.0),
    "serpentine": (_serpentine, 0.0),
    "checkerboard": (_checkerboard, 0.0),
    "wide_shelf": (_wide_shelf, 0.0),
    "all_distinct": (_all_distinct, 0.0),
}


def test_serpentine_is_one_plateau():
    surf = _serpentine()
    labels, _ = regional_minima(surf)
    assert labels[0, 0] == 1
    assert np.array_equal(labels == 1, surf == 0)


@pytest.mark.parametrize("name", sorted(LARGE_SURFACES))
def test_regional_minima_matches_oracle_at_scale(name):
    make, h_min = LARGE_SURFACES[name]
    surf = h_minima(make(), h_min)
    got, k_got = regional_minima(surf)
    want, k_want = oracle_minima(surf)
    assert k_got == k_want >= 1
    assert np.array_equal(got, want)


# _FRONTIER_SHARE at its extremes: 0.0 never leaves the dense passes, and
# 1.0 passes over the frontier from pass 2 on.
SWITCH_SHARES = {
    "never_switch": 0.0,
    "default": lcseg.watershed._FRONTIER_SHARE,
    "switch_after_pass_1": 1.0,
}


@pytest.mark.parametrize("share", sorted(SWITCH_SHARES))
@pytest.mark.parametrize("name", sorted(LARGE_SURFACES))
def test_h_minima_matches_oracle_at_scale(name, share):
    surf = LARGE_SURFACES[name][0]()
    depth = PipelineConfig().h_min
    with mock.patch.object(lcseg.watershed, "_FRONTIER_SHARE", SWITCH_SHARES[share]):
        assert np.array_equal(h_minima(surf, depth), oracle_h_minima(surf, depth))


def _line_surface(length, seed):
    """A random walk of whole steps: pits of every depth, some wide and
    shallow, whose filling runs for many passes over few pixels."""
    steps = np.random.default_rng(seed).integers(-3, 4, size=length)
    return np.cumsum(steps).astype(np.float64)


@pytest.mark.parametrize("share", sorted(SWITCH_SHARES))
@pytest.mark.parametrize("shape", [(1, 240), (240, 1), (2, 120), (120, 2)], ids=str)
def test_h_minima_matches_oracle_on_one_and_two_line_surfaces(shape, share):
    """A frame one or two pixels across puts every pixel next to the
    border, where the frontier's padded indices wrap if mis-shifted."""
    surf = _line_surface(shape[0] * shape[1], shape[0]).reshape(shape)
    with mock.patch.object(lcseg.watershed, "_FRONTIER_SHARE", SWITCH_SHARES[share]):
        for depth in (2.0, 5.0, 20.0):
            assert np.array_equal(h_minima(surf, depth), oracle_h_minima(surf, depth))


# ---------------------------------------------------------------------------
# Watershed cut
# ---------------------------------------------------------------------------

TWO_PIT = np.array(
    [
        [5, 5, 5, 5, 10],
        [5, 0, 5, 10, 5],
        [5, 5, 10, 5, 5],
        [5, 10, 5, 0, 5],
        [10, 5, 5, 5, 5],
    ],
    dtype=float,
)

# The frame the cut runs on: dark above the anti-diagonal, mid gray on it
# and bright below it.  Edges of weight 0 join each side to its pit, and
# each diagonal pixel then joins the dark side, 50 gray levels away
# against 140.
TWO_PIT_FRAME = np.array(
    [
        [10, 10, 10, 10, 60],
        [10, 10, 10, 60, 200],
        [10, 10, 60, 200, 200],
        [10, 60, 200, 200, 200],
        [60, 200, 200, 200, 200],
    ],
    dtype=np.uint8,
)

TWO_PIT_LABELS = np.array(
    [
        [1, 1, 1, 1, 1],
        [1, 1, 1, 1, 2],
        [1, 1, 1, 2, 2],
        [1, 1, 2, 2, 2],
        [1, 2, 2, 2, 2],
    ],
    dtype=np.int32,
)


def test_two_pit_fixture_exact_labels():
    labels = watershed_segment(TWO_PIT, TWO_PIT_FRAME, 0.0)
    assert np.array_equal(labels, TWO_PIT_LABELS)
    assert labels.max() == 2


def test_two_pit_matches_oracle():
    assert np.array_equal(oracle_cut(TWO_PIT, TWO_PIT_FRAME), TWO_PIT_LABELS)


# The frame is its own marker surface: the markers are (0, 1) -> 1 and
# (1, 0) -> 2.  Each other pixel reaches both markers through one edge, and
# both edges weigh the same: 9 for (0, 0), 5 for (1, 1).  The horizontal
# edge is numbered first, so each pixel joins the marker beside it, even
# where the marker above it comes first in row-major order.
EQUAL_WEIGHTS = np.array([[9, 0], [0, 5]], dtype=np.uint8)
EQUAL_WEIGHTS_LABELS = np.array([[1, 1], [2, 2]], dtype=np.int32)


def test_equal_weights_are_taken_in_edge_number_order():
    assert np.array_equal(watershed_segment(EQUAL_WEIGHTS, EQUAL_WEIGHTS), EQUAL_WEIGHTS_LABELS)
    assert np.array_equal(oracle_cut(EQUAL_WEIGHTS, EQUAL_WEIGHTS), EQUAL_WEIGHTS_LABELS)


def test_pore_corner_goes_to_the_pore():
    """The (16, 4) lattice: the enhanced frame rounds each pore's corners
    up past the threshold, yet the cut gives every corner to its pore."""
    img, truth = generate_phantom(PhantomSpec(40, 40, 16, 4, 0.0, 7))
    cfg = PipelineConfig()
    frame = enhance_scales(img, cfg.wavelet_levels, cfg.kept_scales)
    surface = scale_to_255(gradient_magnitude(frame))
    labels = watershed_segment(surface, frame, cfg.h_min)
    assert np.array_equal(labels, oracle_cut(surface, frame, cfg.h_min))
    threshold = otsu_threshold(histogram(frame))
    corners = [(y, x) for y in (4, 15, 20, 31) for x in (4, 15, 20, 31)]
    assert all(not truth[c] and frame[c] > threshold for c in corners)
    for y, x in corners:  # the pore's centre is 6 pixels inwards
        inward = (y + (6 if y % 16 == 4 else -6), x + (6 if x % 16 == 4 else -6))
        assert labels[y, x] == labels[inward]
    assert np.array_equal(labels_to_mask(labels, frame, threshold), truth)


def test_constant_surface_single_basin():
    labels = watershed_segment(np.zeros((6, 6)), np.zeros((6, 6), dtype=np.uint8), 0.0)
    assert labels.max() == 1
    assert (labels == 1).all()


def test_cut_matches_oracle_on_random_surfaces():
    rng = np.random.default_rng(12)
    for _ in range(10):
        surf = rng.integers(0, 5, size=(8, 8)).astype(float)
        frame = surf.astype(np.uint8)
        assert np.array_equal(watershed_segment(surf, frame, 0.0), oracle_cut(surf, frame))


SHAPES = st.one_of(
    st.tuples(st.just(1), st.integers(1, 12)),
    st.tuples(st.integers(1, 12), st.just(1)),
    st.tuples(st.integers(1, 12), st.integers(1, 12)),
)

DEPTHS = st.sampled_from([0.0, 0.5, 1.0, 2.0])


@st.composite
def generated_surfaces(draw):
    """1x1 to 12x12 surfaces of 1 to 5 integer levels, some pixels jittered.

    Jitter none, some or all of the pixels: integer plateaus then sit
    above and below distinct-valued slopes, and plateaus of equal and of
    distinct values touch.
    """
    shape = draw(SHAPES)
    levels = draw(st.integers(1, 5))
    n = shape[0] * shape[1]
    cells = draw(st.lists(st.integers(0, levels - 1), min_size=n, max_size=n))
    surf = np.array(cells, dtype=float).reshape(shape)
    jittered = draw(
        st.one_of(
            st.just([False] * n),
            st.just([True] * n),
            st.lists(st.booleans(), min_size=n, max_size=n),
        )
    )
    picked = np.flatnonzero(jittered)
    jitters = st.lists(
        st.floats(0.0, 1.0, exclude_max=True), min_size=len(picked), max_size=len(picked)
    )
    surf.flat[picked] += draw(jitters)
    return surf


@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(surf=generated_surfaces(), h=DEPTHS)
def test_h_minima_matches_oracle_on_generated_surfaces(surf, h):
    assert np.array_equal(h_minima(surf, h), oracle_h_minima(surf, h))


@pytest.mark.parametrize("share", ["never_switch", "switch_after_pass_1"])
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(surf=generated_surfaces(), h=DEPTHS)
def test_h_minima_matches_oracle_at_switch_extremes(share, surf, h):
    with mock.patch.object(lcseg.watershed, "_FRONTIER_SHARE", SWITCH_SHARES[share]):
        assert np.array_equal(h_minima(surf, h), oracle_h_minima(surf, h))


@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(surf=generated_surfaces(), h=DEPTHS)
def test_regional_minima_matches_oracle_on_generated_surfaces(surf, h):
    # The surfaces the watershed takes its markers from: filled by the oracle.
    filled = oracle_h_minima(surf, h)
    got, k_got = regional_minima(filled)
    want, k_want = oracle_minima(filled)
    assert k_got == k_want >= 1
    assert np.array_equal(got, want)


@st.composite
def cut_cases(draw):
    """A generated surface and a gray frame of its shape.

    The frame is the surface's integer part, so that its plateaus and
    the markers line up, or independent values of 2, 4 or 256 levels.
    """
    surf = draw(generated_surfaces())
    levels = draw(st.sampled_from([0, 2, 4, 256]))
    if levels == 0:
        return surf, np.floor(surf).astype(np.uint8)
    n = surf.size
    cells = draw(st.lists(st.integers(0, levels - 1), min_size=n, max_size=n))
    return surf, np.array(cells, dtype=np.uint8).reshape(surf.shape)


# 300 examples, or more under a profile that asks for more (the "ci"
# profile of tests/conftest.py asks for 2000).
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(case=cut_cases(), h_min=DEPTHS)
def test_cut_matches_oracle_on_generated_surfaces(case, h_min):
    surf, frame = case
    assert np.array_equal(watershed_segment(surf, frame, h_min), oracle_cut(surf, frame, h_min))


def test_cut_with_h_min_matches_oracle():
    rng = np.random.default_rng(13)
    for _ in range(5):
        surf = rng.integers(0, 12, size=(8, 8)).astype(float)
        frame = surf.astype(np.uint8)
        assert np.array_equal(watershed_segment(surf, frame, 3.0), oracle_cut(surf, frame, 3.0))


def test_basin_count_equals_minima_count_at_zero_h():
    # One basin per marker: the cut leaves no pixel as a ridge.
    rng = np.random.default_rng(14)
    surf = rng.integers(0, 9, size=(12, 12)).astype(float)
    _, k = regional_minima(surf)
    labels = watershed_segment(surf, surf.astype(np.uint8), 0.0)
    assert labels.max() == k
    assert labels.min() == 1


def test_basin_count_non_increasing_in_h():
    img, _ = generate_phantom(PhantomSpec(64, 64, 16, 5, 25.0, 3))
    surf = gradient_magnitude(img)
    counts = []
    for h in (0.0, 5.0, 20.0, 60.0):
        labels = watershed_segment(surf, img, h)
        counts.append(int(labels.max()))
    assert counts == sorted(counts, reverse=True)
    assert counts[1] < counts[0]


def test_cut_determinism():
    rng = np.random.default_rng(15)
    surf = rng.integers(0, 4, size=(10, 10)).astype(float)
    frame = surf.astype(np.uint8)
    a = watershed_segment(surf, frame, 0.0)
    b = watershed_segment(surf, frame, 0.0)
    assert np.array_equal(a, b)


def test_basins_are_connected_and_contain_their_marker():
    rng = np.random.default_rng(16)
    surf = rng.integers(0, 5, size=(9, 9)).astype(float)
    labels = watershed_segment(surf, rng.integers(0, 256, size=(9, 9)).astype(np.uint8), 0.0)
    markers, k = regional_minima(surf)
    assert labels.max() == k and labels.min() == 1
    for basin in range(1, k + 1):
        inside = labels == basin
        # marker k, and only it, sits inside basin k
        held = markers[inside & (markers > 0)]
        assert (held == basin).all() and held.size == (markers == basin).sum()
        # 4-connectivity of the basin
        ys, xs = np.nonzero(inside)
        cells = set(zip(ys.tolist(), xs.tolist()))
        start = next(iter(cells))
        seen = {start}
        stack = [start]
        while stack:
            y, x = stack.pop()
            for dy, dx in NEIGHBORS:
                n = (y + dy, x + dx)
                if n in cells and n not in seen:
                    seen.add(n)
                    stack.append(n)
        assert seen == cells


# The frame each large surface's cut runs on: the phantom frame a gradient
# came from, else the integer surface itself modulo 256.
LARGE_FRAMES = {
    "phantom_gradient": _phantom_frame,
    "enhanced_gradient_s0": partial(_enhanced_frame, 0.0),
    "enhanced_gradient_s20": partial(_enhanced_frame, 20.0),
}


@pytest.mark.parametrize("name", sorted(LARGE_SURFACES))
def test_cut_matches_oracle_at_scale(name):
    make, h_min = LARGE_SURFACES[name]
    surf = make()
    if name in LARGE_FRAMES:
        frame = LARGE_FRAMES[name]()
    else:
        frame = (surf % 256).astype(np.uint8)
    got = watershed_segment(surf, frame, h_min)
    assert got.dtype == np.int32
    assert np.array_equal(got, oracle_cut(surf, frame, h_min))


def test_cut_without_markers_raises(monkeypatch):
    def no_markers(surface):
        return np.zeros(np.shape(surface), dtype=np.int32), 0

    monkeypatch.setattr(lcseg.watershed, "regional_minima", no_markers)
    with pytest.raises(RuntimeError, match="undecided"):
        watershed_segment(np.zeros((5, 5)), np.zeros((5, 5), dtype=np.uint8), 0.0)


def test_rejects_non_finite_surface():
    surf = np.zeros((4, 4))
    surf[1, 1] = np.nan
    with pytest.raises(ValueError):
        watershed_segment(surf, np.zeros((4, 4), dtype=np.uint8), 0.0)


def test_cut_rejects_a_frame_of_another_shape():
    with pytest.raises(ValueError, match="image vs surface"):
        watershed_segment(np.zeros((4, 4)), np.zeros((4, 5), dtype=np.uint8), 0.0)


def test_cut_frees_its_round_one_frames():
    """Peak traced memory of ``watershed_segment`` at depth 5 on the
    benchmark surface, in float64 frames.  With intp indices and each
    round-1 temporary freed after its last use it is 6.25; int32 indices
    with every temporary kept to the end of the cut took 10.90."""
    frame, surf = _benchmark_frame_and_surface()
    assert _peak_frames(watershed_segment, surf, frame, 5.0) <= 8


# ---------------------------------------------------------------------------
# labels_to_mask
# ---------------------------------------------------------------------------

def test_single_basin_is_foreground():
    # A basin is tissue iff its mean is above the threshold.
    labels = np.ones((4, 4), dtype=np.int32)
    img = np.full((4, 4), 13, dtype=np.uint8)
    assert labels_to_mask(labels, img, 0).all()
    assert labels_to_mask(labels, img, 12).all()
    assert not labels_to_mask(labels, img, 13).any()


def test_two_basins_otsu_split():
    # lcseg segment's default: Otsu's threshold t = 60 of the input puts
    # 60 in the lower class {v <= t}, and so does the split at t.
    labels = np.ones((4, 4), dtype=np.int32)
    labels[:, 2:] = 2
    img = np.full((4, 4), 60, dtype=np.uint8)
    img[:, 2:] = 190
    assert otsu_threshold(histogram(img)) == 60
    mask = labels_to_mask(labels, img, otsu_threshold(histogram(img)))
    assert not mask[:, :2].any()
    assert mask[:, 2:].all()


def test_fixed_threshold_rule():
    labels = np.ones((4, 4), dtype=np.int32)
    labels[:, 2:] = 2
    img = np.full((4, 4), 60, dtype=np.uint8)
    img[:, 2:] = 190
    assert labels_to_mask(labels, img, 59).all()
    for threshold in (60, 189):
        mask = labels_to_mask(labels, img, threshold)
        assert mask[:, 2:].all() and not mask[:, :2].any()
    assert not labels_to_mask(labels, img, 190).any()
    assert not labels_to_mask(labels, img, 255).any()


def test_mean_equal_to_the_threshold_is_pore():
    # Basin 1 holds 80 only (mean t), basin 2 holds 80 and 81 (mean
    # t + 0.5), basin 3 holds 79 and 80 (mean t - 0.5): only basin 2 is
    # above t = 80.
    labels = np.array([[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 3, 3]], dtype=np.int32)
    img = np.array([[80, 80, 80, 81], [80, 80, 81, 80], [79, 80, 79, 80]], dtype=np.uint8)
    mask = labels_to_mask(labels, img, 80)
    assert np.array_equal(mask, labels == 2)
    assert np.array_equal(mask, oracle_labels_to_mask(labels, img, 80))


@pytest.mark.parametrize("fixed_threshold", [-1, 256, 999, float("nan")])
def test_fixed_threshold_outside_gray_range_is_rejected(fixed_threshold):
    labels = np.ones((4, 4), dtype=np.int32)
    img = np.full((4, 4), 60, dtype=np.uint8)
    with pytest.raises(ValueError, match="threshold must be in 0..255"):
        labels_to_mask(labels, img, fixed_threshold)


@pytest.mark.parametrize("lowest", [0, -1])
def test_labels_to_mask_rejects_labels_below_one(lowest):
    labels = np.array([[1, 2], [lowest, 2]], dtype=np.int32)
    with pytest.raises(ValueError, match="basin ids >= 1"):
        labels_to_mask(labels, np.zeros((2, 2), dtype=np.uint8), 0)


# None stands for lcseg segment's default: Otsu's split of the image.
@pytest.mark.parametrize("fixed_threshold", [None, 0, 100, 128, 255])
def test_labels_to_mask_matches_oracle(fixed_threshold):
    rng = np.random.default_rng(40 if fixed_threshold is None else fixed_threshold)
    for _ in range(8):
        shape = tuple(int(v) for v in rng.integers(8, 20, size=2))
        labels = rng.integers(1, 10, size=shape).astype(np.int32)
        img = rng.integers(0, 256, size=shape).astype(np.uint8)
        threshold = fixed_threshold
        if threshold is None:
            threshold = otsu_threshold(histogram(img))
        got = labels_to_mask(labels, img, threshold)
        assert np.array_equal(got, oracle_labels_to_mask(labels, img, threshold))


def test_labels_to_mask_matches_oracle_on_cut_phantom():
    frame = _enhanced_frame(20.0)
    labels = watershed_segment(_enhanced_gradient(20.0), frame, PipelineConfig().h_min)
    assert labels.min() == 1  # every pixel is in a basin
    for threshold in (otsu_threshold(histogram(frame)), 128):
        got = labels_to_mask(labels, frame, threshold)
        assert np.array_equal(got, oracle_labels_to_mask(labels, frame, threshold))


def test_labels_to_mask_dimension_mismatch():
    with pytest.raises(ValueError):
        labels_to_mask(
            np.ones((3, 3), dtype=np.int32), np.zeros((4, 4), dtype=np.uint8), 0
        )


# The least share of pixels the default pipeline must get right at 256²,
# phantom seed 7.  The bounds of the last four sit below the worst of
# phantom seeds 0-9 under the watershed cut: (16, 4, 20) 98.64%,
# (48, 20, 20) 99.71%, (48, 20, 60) 99.38% and (128, 40, 60) 99.85%.
GEOMETRY_BOUNDS = {
    (16, 4, 0.0): 0.99,
    (32, 10, 0.0): 0.99,
    (48, 20, 0.0): 0.99,
    (128, 96, 0.0): 0.99,
    (32, 10, 20.0): 0.99,
    (16, 4, 20.0): 0.985,
    (48, 20, 20.0): 0.995,
    (48, 20, 60.0): 0.99,
    (128, 40, 60.0): 0.995,
}


@pytest.mark.parametrize("period, beam, sigma", list(GEOMETRY_BOUNDS))
def test_geometry_sweep_end_to_end_mask(period, beam, sigma):
    img, truth = generate_phantom(PhantomSpec(256, 256, period, beam, sigma, 7))
    from lcseg.pipeline import run_pipeline

    result = run_pipeline(img, truth, PipelineConfig())
    agreement = (result.mask == truth).mean()
    assert agreement >= GEOMETRY_BOUNDS[(period, beam, sigma)]


# ---------------------------------------------------------------------------
# mask_boundary
# ---------------------------------------------------------------------------

def oracle_boundary(mask):
    """Foreground pixels with a 4-neighbour off the image or in the background."""
    rows, cols = mask.shape
    out = np.zeros_like(mask)
    for y in range(rows):
        for x in range(cols):
            out[y, x] = mask[y, x] and any(
                not (0 <= y + dy < rows and 0 <= x + dx < cols) or not mask[y + dy, x + dx]
                for dy, dx in NEIGHBORS
            )
    return out


@pytest.mark.parametrize(
    "shape", [(1, 1), (1, 7), (7, 1), (2, 9), (9, 2), (3, 3), (12, 17)], ids=str
)
def test_boundary_matches_oracle_on_random_masks(shape):
    rng = np.random.default_rng(sum(shape))
    for density in (0.1, 0.5, 0.9, 1.0):
        m = rng.uniform(size=shape) < density
        before = m.copy()
        b = mask_boundary(m)
        assert b.dtype == bool and np.array_equal(b, oracle_boundary(m))
        assert np.array_equal(m, before)


def test_boundary_empty_mask():
    assert not mask_boundary(np.zeros((5, 5), dtype=bool)).any()


def test_boundary_single_pixel():
    m = np.zeros((5, 5), dtype=bool)
    m[2, 2] = True
    b = mask_boundary(m)
    assert b[2, 2]
    assert b.sum() == 1


def test_boundary_solid_block_perimeter():
    m = np.zeros((8, 8), dtype=bool)
    m[2:6, 2:6] = True
    b = mask_boundary(m)
    assert b.sum() == 12
    assert not b[3:5, 3:5].any()
    assert b[2, 2] and b[2, 5] and b[5, 2] and b[5, 5]


def test_boundary_subset_of_mask():
    rng = np.random.default_rng(20)
    for _ in range(10):
        m = rng.uniform(size=(9, 9)) < 0.5
        b = mask_boundary(m)
        assert not (b & ~m).any()


def test_boundary_image_border_counts_as_background():
    m = np.ones((4, 4), dtype=bool)
    b = mask_boundary(m)
    assert b[0].all() and b[-1].all() and b[:, 0].all() and b[:, -1].all()
    assert not b[1:3, 1:3].any()


# ---------------------------------------------------------------------------
# Pinned float surfaces
# ---------------------------------------------------------------------------

def _pinned_inputs():
    rng = np.random.default_rng(8)
    for h, w in [(3, 3), (5, 17), (40, 29), (64, 64)]:
        yield f"random{h}x{w}", rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    for sigma in (0.0, 20.0, 60.0):
        img, _ = generate_phantom(PhantomSpec(96, 96, 32, 10, sigma, 7))
        yield f"phantom_s{int(sigma)}", img


# sha256 of the raw bytes of the float64 Sobel magnitude, its h-minima fill
# (h = 5 on the [0, 255] rescale), the int32 markers and labels, and the bool
# mask and boundary.  The first three were taken at commit d010df6; the
# labels, mask and boundary were re-taken when the watershed cut replaced the
# flood.  The mask splits the basins at the image's Otsu threshold t, a basin
# being tissue iff its mean is > t.  The mask and boundary of phantom_s60 were
# re-taken when that rule replaced a split one gray level above t: a basin of
# 5 pixels with mean 126.8 against t = 126 became tissue, as its truth is.
# The PGM artifact pins cannot see an ulp change in the gradient (gradient.pgm
# is quantized to 8 bits, labels.pgm saturates at 255); these can.
SURFACE_PINS = {
    "random3x3": (
        "efb6efbb1bce5f663d7b7164667c1bda90c130a8414cf2ccf0bf2cc8eb004aa5",
        "03c93ea51de57fd595cf3f946fcfe879f3aa22f697c14ac444cec16ca6a4a5cf",
        "a020a98e111c8e3b881cd7c00487854a0b68718e8ed3302fd02a0f68b5c8663a",
        "a4a19c08b72b400a57bf6eed786b803da8b986a924459bffe1bd5c72b75ac210",
        "cfd7f1c7e5c3f37b1fa6dc7079e55fb5743fa0c78eb66983d75bbde1c75b0aee",
        "cfd7f1c7e5c3f37b1fa6dc7079e55fb5743fa0c78eb66983d75bbde1c75b0aee",
    ),
    "random5x17": (
        "35a050cb3a6e3825410e1129521bfd1d737c032def9d88e64fe71eb346b009b2",
        "2b79b25ab8b9ef0dd4683eba4b983edd2235931160f386a233f6a36aed52b7d9",
        "4d88a2ddf7fe9fdd431dd52273329156d38c6110e59b7e8f77a7f44afae2d650",
        "e48165f830e7a4b78da02b4fe659f5a40b0f70ff6f36e0054944c7cc8c255292",
        "8bba854e67a7413be801fee66b45139b2276dd4608f868ab4b5a84b869d495e2",
        "968f6dcae0879c5da64ced9c677324b37ef65fb133a875a26ee13b36bac68195",
    ),
    "random40x29": (
        "25541171b41de45b8e4c210ed889ec94e1a57fdc52a2f96eafd9cecf582039c6",
        "d898db7e3f1a88edc74460d707d17b268970be8db7e349a98121ed88b8207b0b",
        "81366d3c2e89714da8ae0aaf1af3d07b8f68f36100ad52ed75a07e35ccb64eb6",
        "83a22271f2280ceb1fa723611d5480c3fa25c14a342b96abb88cda4f15e17a0a",
        "5264bdd51c2ad834e0f22c4da4f52f9349ad0f4f469040579425819b79f17fb9",
        "ae2e3aecba25ccafb238dc22af2d81c93415c6e80145546cf6555315d00b1bb5",
    ),
    "random64x64": (
        "03c1f736fd46ce57a670166dd9a92713841b4017e4804385ca3acda3cdbb0a46",
        "6f03847420cfc46e88c258864e36bc79a20492d26c2e9b45b1960f3e8a2b700a",
        "3bc001d64ce0a6449e26e79f51871a3d4b7e4b515aaba89546a77c85242144ef",
        "17d1acb37bfef016eb1a5e78f4ffc785a8e795e19ce712fd8a312dd26b5e4501",
        "09dcba5e43d53c2595718c1194f42bae55944575336de580b258cf7e04422475",
        "107c612bef8c2ee8c73f0481ab711fd61c62d95d4bf1eb908399aa7d87e7716b",
    ),
    "phantom_s0": (
        "2173bb4b5659cc2d3c8b6893f3a8d564d481225ed81e3c13da2214e2563c6f68",
        "a1a9d1596a800644ec80b6505d05820d3824a50e839196c0917c00a619a43bc2",
        "1b860108abb36aa7c4a2806b29b6c0484cfad535deac3128580ab76628e1cff4",
        "7e22db8093cc2574bd0abb50a48478345e9e836abe004dedc2ac10f431c51f6e",
        "81b7964813e3e85daa7ed88fad6195a96fcb3a91571bce571d35d879f30f855e",
        "fc377354f8fc2d2f134b28667d8720f03b0cdb5fd3bea9e7eab86c89fa1cd106",
    ),
    "phantom_s20": (
        "fad869d88fd8b872789e02f454826aa5f98499a50a017d260546714571b2c8f0",
        "6c9c49f9a2c7f40736e7d14b941e464874b76ba990501939190e34d1e15943cd",
        "e1775d8d804b1913ae3bf1e3d5e9ab9fc12b42040d83c9a95a8b342c460b642e",
        "d93cb0ef2978dee5d65e599501bd347556b18d7841fdefda73aeac0be2813713",
        "015094a7db0747afd90be4bdcf0d34605c0e263abd3d4925b95c75c364baa840",
        "bcb9cdc0e212c5f9ce570194c42408505987dad5010606bf13a7f4f1571721be",
    ),
    "phantom_s60": (
        "d686e9fe57caa897e6c193b9893a5f714a288337c42e7f342d65d2c054e2cd1b",
        "b01e2cea43d57cd00368a282167871e8bcf4b55837a3a250a269bb8ffb6de831",
        "10c856fdcb9b455393053893e86711e1d442d4c3a80ff8fb7bd2e04fdd379bd2",
        "3e16ac20a050d10d6fc28ceaacd054c3fe1635fae98cccc3f598be5c24dc2981",
        "69e4062d8f519869b5033365a9444fbb5f3857e288b1895bf9fe203f4213754d",
        "7124132ecd75a7a5c2835414f0b3279d787fb765fac31c193560dc773dae9d0b",
    ),
}


def test_float_surfaces_are_pinned():
    def digest(a):
        return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

    got = {}
    for name, img in _pinned_inputs():
        gradient = gradient_magnitude(img)
        surface = scale_to_255(gradient)
        filled = h_minima(surface, 5.0)
        labels = watershed_segment(surface, img, 5.0)
        mask = labels_to_mask(labels, img, otsu_threshold(histogram(img)))
        markers, _ = regional_minima(filled)
        stages = (gradient, filled, markers, labels, mask, mask_boundary(mask))
        got[name] = tuple(digest(a) for a in stages)
    assert got == SURFACE_PINS


# sha256 of the int32 labels of the default pipeline on the phantoms the
# benchmark runs: 256² σ=20 (3088 basins), the noise-free 256² σ=0 (65) and
# a 128² σ=20 tile (534).  Re-taken when the watershed cut of the enhanced
# frame replaced the flood of the equalized one.
PIPELINE_LABEL_PINS = {
    (256, 32, 10, 20.0): "850792f9e1d2d88491643e8a508d8c8cc9e7e8ba2704fc2ed02c5dcbe586c9b7",
    (256, 32, 10, 0.0): "e3466d3c39e4e0e6541dc7e7486161a22fbdebcc9f45f9dfbace192a0d100828",
    (128, 16, 4, 20.0): "8f1a7cb9b57bc38bf822397a72fa68561cffb0f0cacc0aa974704dfbc6a2ae9b",
}


@pytest.mark.parametrize("size, period, beam, sigma", list(PIPELINE_LABEL_PINS))
def test_pipeline_labels_are_pinned_at_benchmark_size(size, period, beam, sigma):
    from lcseg.pipeline import run_pipeline

    img, _ = generate_phantom(PhantomSpec(size, size, period, beam, sigma, 7))
    labels = run_pipeline(img, None, PipelineConfig()).labels
    assert labels.dtype == np.int32
    digest = hashlib.sha256(np.ascontiguousarray(labels).tobytes()).hexdigest()
    assert digest == PIPELINE_LABEL_PINS[(size, period, beam, sigma)]
