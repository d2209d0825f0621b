import numpy as np
import pytest

import lcseg.watershed
from lcseg.bat import otsu_threshold
from lcseg.config import PipelineConfig
from lcseg.image import PhantomSpec, generate_phantom
from lcseg.image import scale_to_255
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


def oracle_flood(surface, h_min=0.0):
    """List-based Meyer flood following the documented contract (oracle).

    Pops the smallest (value, insertion sequence) entry by linear scan;
    everything else mirrors the contract in watershed_segment's
    docstring.
    """
    filled = oracle_h_minima(surface, h_min) if h_min > 0 else np.asarray(
        surface, dtype=float
    )
    labels, _ = oracle_minima(filled)
    h, w = filled.shape
    queue = []  # entries (value, seq, y, x), scanned linearly for the min
    queued = [[labels[y, x] > 0 for x in range(w)] for y in range(h)]
    seq = 0
    for y in range(h):
        for x in range(w):
            if labels[y, x] == 0:
                continue
            for dy, dx in NEIGHBORS:
                ny, nx = y + dy, x + dx
                if 0 <= ny < h and 0 <= nx < w and not queued[ny][nx]:
                    queued[ny][nx] = True
                    queue.append((filled[ny, nx], seq, ny, nx))
                    seq += 1
    while queue:
        best = min(range(len(queue)), key=lambda i: (queue[i][0], queue[i][1]))
        _, _, y, x = queue.pop(best)
        adjacent = []
        for dy, dx in NEIGHBORS:
            ny, nx = y + dy, x + dx
            if 0 <= ny < h and 0 <= nx < w:
                lab = labels[ny, nx]
                if lab > 0 and lab not in adjacent:
                    adjacent.append(lab)
        if len(adjacent) == 1:
            labels[y, x] = adjacent[0]
        # otherwise the pixel stays 0 (ridge)
        for dy, dx in NEIGHBORS:
            ny, nx = y + dy, x + dx
            if 0 <= ny < h and 0 <= nx < w and not queued[ny][nx]:
                queued[ny][nx] = True
                queue.append((filled[ny, nx], seq, ny, nx))
                seq += 1
    return labels


def oracle_labels_to_mask(labels, image, fixed_threshold=None):
    """Basin classification and per-ridge-pixel vote with loops (oracle).

    Basin means are summed pixel by pixel in row-major order; the Otsu
    rule splits the floored means at the lowest maximizer of the
    between-class variance (all foreground when the floored means are
    all equal, so that no split has positive variance).  Each
    ridge pixel then counts its foreground and background basin
    neighbors and is foreground on ties.
    """
    lab = np.asarray(labels)
    img = np.asarray(image)
    h, w = lab.shape
    sums, counts = {}, {}
    for y in range(h):
        for x in range(w):
            k = int(lab[y, x])
            if k > 0:
                sums[k] = sums.get(k, 0.0) + float(img[y, x])
                counts[k] = counts.get(k, 0) + 1
    means = {k: sums[k] / counts[k] for k in sums}
    if fixed_threshold is not None:
        foreground = {k: m >= fixed_threshold for k, m in means.items()}
    else:
        floored = {k: min(max(int(np.floor(m)), 0), 255) for k, m in means.items()}
        hist = np.zeros(256, dtype=np.int64)
        for v in floored.values():
            hist[v] += 1
        if len(set(floored.values())) < 2:
            foreground = {k: True for k in floored}
        else:
            t = otsu_threshold(hist)
            foreground = {k: v > t for k, v in floored.items()}
    mask = np.zeros((h, w), dtype=bool)
    for y in range(h):
        for x in range(w):
            k = int(lab[y, x])
            if k > 0:
                mask[y, x] = foreground[k]
                continue
            fg = bg = 0
            for dy, dx in NEIGHBORS:
                ny, nx = y + dy, x + dx
                if 0 <= ny < h and 0 <= nx < w and lab[ny, nx] > 0:
                    if foreground[int(lab[ny, nx])]:
                        fg += 1
                    else:
                        bg += 1
            mask[y, x] = fg >= bg
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
            watershed_segment(surf, h)


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



def _phantom_gradient():
    img, _ = generate_phantom(PhantomSpec(32, 32, 32, 10, 20.0, 7))
    return scale_to_255(gradient_magnitude(img))


def _heavy_ties():
    return np.random.default_rng(30).integers(0, 3, size=(24, 24)).astype(float)


def _serpentine():
    """A one-pixel-wide plateau winding through the top 15 rows.

    Walls of mixed heights separate its runs; rough ground below it
    holds the other minima, so the flood has basins to split.
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


LARGE_SURFACES = {
    "phantom_gradient": (_phantom_gradient, PipelineConfig().h_min),
    "heavy_ties": (_heavy_ties, 0.0),
    "serpentine": (_serpentine, 0.0),
    "checkerboard": (_checkerboard, 0.0),
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


# ---------------------------------------------------------------------------
# Watershed flooding
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

TWO_PIT_LABELS = np.array(
    [
        [1, 1, 1, 1, 0],
        [1, 1, 1, 0, 2],
        [1, 1, 0, 2, 2],
        [1, 0, 2, 2, 2],
        [0, 2, 2, 2, 2],
    ],
    dtype=np.int32,
)


def test_two_pit_fixture_exact_labels():
    labels = watershed_segment(TWO_PIT, 0.0)
    assert np.array_equal(labels, TWO_PIT_LABELS)
    assert labels.max() == 2


def test_two_pit_matches_oracle():
    assert np.array_equal(oracle_flood(TWO_PIT), TWO_PIT_LABELS)


def test_constant_surface_single_basin():
    labels = watershed_segment(np.zeros((6, 6)), 0.0)
    assert labels.max() == 1
    assert (labels == 1).all()


def test_flood_matches_oracle_on_random_surfaces():
    rng = np.random.default_rng(12)
    for _ in range(10):
        surf = rng.integers(0, 5, size=(8, 8)).astype(float)
        got = watershed_segment(surf, 0.0)
        want = oracle_flood(surf)
        assert np.array_equal(got, want)


def test_flood_with_h_min_matches_oracle():
    rng = np.random.default_rng(13)
    for _ in range(5):
        surf = rng.integers(0, 12, size=(8, 8)).astype(float)
        got = watershed_segment(surf, 3.0)
        want = oracle_flood(surf, 3.0)
        assert np.array_equal(got, want)


def test_ridge_count_equals_minima_count_at_zero_h():
    rng = np.random.default_rng(14)
    surf = rng.integers(0, 9, size=(12, 12)).astype(float)
    _, k = regional_minima(surf)
    labels = watershed_segment(surf, 0.0)
    assert labels.max() == k


def test_basin_count_non_increasing_in_h():
    img, _ = generate_phantom(PhantomSpec(64, 64, 16, 5, 25.0, 3))
    surf = gradient_magnitude(img)
    counts = []
    for h in (0.0, 5.0, 20.0, 60.0):
        labels = watershed_segment(surf, h)
        counts.append(int(labels.max()))
    assert counts == sorted(counts, reverse=True)
    assert counts[1] < counts[0]


def test_flood_determinism():
    rng = np.random.default_rng(15)
    surf = rng.integers(0, 4, size=(10, 10)).astype(float)
    a = watershed_segment(surf, 0.0)
    b = watershed_segment(surf, 0.0)
    assert np.array_equal(a, b)


def test_basins_are_connected_and_contain_their_marker():
    rng = np.random.default_rng(16)
    surf = rng.integers(0, 5, size=(9, 9)).astype(float)
    labels = watershed_segment(surf, 0.0)
    markers, k = regional_minima(surf)
    assert labels.max() == k
    for basin in range(1, k + 1):
        inside = labels == basin
        # marker k sits inside basin k
        assert (markers[inside] == basin).any() or not (markers == basin).any()
        assert not ((markers == basin) & ~inside).any()
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


@pytest.mark.parametrize("name", sorted(LARGE_SURFACES))
def test_flood_matches_oracle_at_scale(name):
    make, h_min = LARGE_SURFACES[name]
    surf = make()
    got = watershed_segment(surf, h_min)
    assert got.dtype == np.int32
    assert np.array_equal(got, oracle_flood(surf, h_min))


def test_flood_without_markers_raises(monkeypatch):
    def no_markers(surface):
        return np.zeros(np.shape(surface), dtype=np.int32), 0

    monkeypatch.setattr(lcseg.watershed, "regional_minima", no_markers)
    with pytest.raises(RuntimeError, match="undecided"):
        watershed_segment(np.zeros((5, 5)), 0.0)


def test_rejects_non_finite_surface():
    surf = np.zeros((4, 4))
    surf[1, 1] = np.nan
    with pytest.raises(ValueError):
        watershed_segment(surf, 0.0)


# ---------------------------------------------------------------------------
# labels_to_mask
# ---------------------------------------------------------------------------

def test_single_basin_is_foreground():
    labels = np.ones((4, 4), dtype=np.int32)
    img = np.full((4, 4), 13, dtype=np.uint8)
    assert labels_to_mask(labels, img).all()


def test_two_basins_otsu_split():
    labels = np.ones((4, 4), dtype=np.int32)
    labels[:, 2:] = 2
    img = np.full((4, 4), 60, dtype=np.uint8)
    img[:, 2:] = 190
    mask = labels_to_mask(labels, img)
    assert not mask[:, :2].any()
    assert mask[:, 2:].all()


def test_fixed_threshold_rule():
    labels = np.ones((4, 4), dtype=np.int32)
    labels[:, 2:] = 2
    img = np.full((4, 4), 60, dtype=np.uint8)
    img[:, 2:] = 190
    assert labels_to_mask(labels, img, fixed_threshold=200).sum() == 0
    assert labels_to_mask(labels, img, fixed_threshold=60).all()
    mask = labels_to_mask(labels, img, fixed_threshold=61)
    assert mask[:, 2:].all() and not mask[:, :2].any()


def test_ridge_majority_and_tie():
    # three columns: basin1 (dark) | ridge | basin2 (bright)
    labels = np.array([[1, 0, 2]] * 3, dtype=np.int32)
    img = np.array([[10, 100, 200]] * 3, dtype=np.uint8)
    mask = labels_to_mask(labels, img)
    # ridge has one fg and one bg basin neighbor -> tie -> foreground
    assert mask[:, 1].all()
    assert mask[:, 2].all()
    assert not mask[:, 0].any()


def test_ridge_majority_follows_neighbors():
    # ridge pixel surrounded by two bright basins and one dark
    labels = np.array(
        [
            [2, 2, 2],
            [1, 0, 3],
            [3, 3, 3],
        ],
        dtype=np.int32,
    )
    img = np.array(
        [
            [200, 200, 200],
            [10, 0, 210],
            [205, 205, 205],
        ],
        dtype=np.uint8,
    )
    mask = labels_to_mask(labels, img)
    assert mask[1, 1]  # fg majority 3-1


def _random_label_map(rng, shape):
    """Basins 1..9 with about 40% ridge, a ridge-lined border and a ridge
    pixel whose four neighbors are all ridge."""
    labels = rng.integers(1, 10, size=shape).astype(np.int32)
    labels[rng.uniform(size=shape) < 0.4] = 0
    labels[0, : shape[1] // 2] = 0
    labels[:, -1] = 0
    labels[2:5, 2:5] = 0
    labels[6, 6] = 1  # at least one basin pixel
    return labels


@pytest.mark.parametrize("fixed_threshold", [None, 0, 100, 128, 255])
def test_labels_to_mask_matches_oracle(fixed_threshold):
    rng = np.random.default_rng(40 if fixed_threshold is None else fixed_threshold)
    for _ in range(8):
        shape = tuple(int(v) for v in rng.integers(8, 20, size=2))
        labels = _random_label_map(rng, shape)
        img = rng.integers(0, 256, size=shape).astype(np.uint8)
        got = labels_to_mask(labels, img, fixed_threshold=fixed_threshold)
        want = oracle_labels_to_mask(labels, img, fixed_threshold)
        assert np.array_equal(got, want)
        assert got[3, 3]  # no basin neighbor: the tie goes to foreground


def test_labels_to_mask_matches_oracle_on_flooded_phantom():
    img, _ = generate_phantom(PhantomSpec(32, 32, 32, 10, 20.0, 7))
    labels = watershed_segment(_phantom_gradient(), PipelineConfig().h_min)
    assert (labels == 0).any()
    for fixed_threshold in (None, 128):
        got = labels_to_mask(labels, img, fixed_threshold=fixed_threshold)
        assert np.array_equal(got, oracle_labels_to_mask(labels, img, fixed_threshold))


def test_labels_to_mask_dimension_mismatch():
    with pytest.raises(ValueError):
        labels_to_mask(
            np.ones((3, 3), dtype=np.int32), np.zeros((4, 4), dtype=np.uint8)
        )


def test_noise_free_phantom_end_to_end_mask():
    img, truth = generate_phantom(PhantomSpec(256, 256, 128, 96, 0.0, 5))
    from lcseg.pipeline import run_pipeline

    result = run_pipeline(img, truth, PipelineConfig())
    agreement = (result.mask == truth).mean()
    assert agreement >= 0.99


# ---------------------------------------------------------------------------
# mask_boundary
# ---------------------------------------------------------------------------

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
