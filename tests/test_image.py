import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcseg.image import (
    PgmError,
    PhantomSpec,
    crop,
    generate_phantom,
    labels_to_gray8,
    mask_to_gray8,
    read_pgm,
    separable_filter,
    write_overlay,
    write_pgm,
)


def _mirror(i, n):
    if i < 0:
        return -i
    if i > n - 1:
        return 2 * (n - 1) - i
    return i


def oracle_separable(plane, taps_y, taps_x, spacing):
    """``taps_y`` down each column, then ``taps_x`` along each row, with
    scalar loops and mirror indexing (test oracle)."""
    h, w = plane.shape
    rows = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for k, tap in enumerate(taps_y):
                acc += tap * plane[_mirror(y + (k - len(taps_y) // 2) * spacing, h), x]
            rows[y, x] = acc
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for k, tap in enumerate(taps_x):
                acc += tap * rows[y, _mirror(x + (k - len(taps_x) // 2) * spacing, w)]
            out[y, x] = acc
    return out


@pytest.mark.parametrize(
    "shape, taps_y, taps_x, spacing",
    [
        ((7, 9), (1, 2, 1), (-1, 0, 1), 1),  # Sobel x
        ((7, 9), (-1, 0, 1), (1, 2, 1), 1),  # Sobel y
        ((7, 9), (0.25, 0.5, 0.25), (1.0, -3.0, 0.5, 2.0, 7.0), 2),
        ((5, 9), (1.0, -3.0, 0.5, 2.0, 7.0), (0.5, 1.5, -1.0), 2),  # reach n - 1 in y
        ((6, 10), (2.0,), (3.0, 1.0, -2.0), 3),
    ],
)
def test_separable_filter_matches_scalar_oracle(shape, taps_y, taps_x, spacing):
    plane = np.random.default_rng(12).normal(100.0, 40.0, size=shape)
    got = separable_filter(plane, taps_y, taps_x, spacing)
    assert np.array_equal(got, oracle_separable(plane, taps_y, taps_x, spacing))


@pytest.mark.parametrize("axis", ["y", "x"])
def test_separable_filter_rejects_reach_past_one_mirror(axis):
    """Reach n - 1 needs one mirror and matches the oracle; reach n raises."""
    rng = np.random.default_rng(13)
    plane = rng.normal(size=(7, 9))
    n = plane.shape[0] if axis == "y" else plane.shape[1]

    def taps_with_reach(reach):
        taps = rng.normal(size=2 * reach + 1)
        return (taps, (1.0,)) if axis == "y" else ((1.0,), taps)

    at_limit = taps_with_reach(n - 1)
    got = separable_filter(plane, *at_limit)
    assert np.array_equal(got, oracle_separable(plane, *at_limit, 1))
    with pytest.raises(ValueError, match=f"{axis} reach {n} exceeds n - 1 for n = {n}"):
        separable_filter(plane, *taps_with_reach(n))


def test_read_p5_direct_bytes(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 128, 255, 7]))
    img = read_pgm(path)
    assert img.shape == (2, 2)
    assert img.ravel().tolist() == [0, 128, 255, 7]


def test_read_p2_direct_value(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_text("P2 1 1 255 42")
    img = read_pgm(path)
    assert img.shape == (1, 1)
    assert img[0, 0] == 42


def test_p2_and_p5_agree(tmp_path):
    rng = np.random.default_rng(5)
    ref = rng.integers(0, 256, size=(7, 11), dtype=np.uint8)
    p5 = tmp_path / "b5.pgm"
    p5.write_bytes(b"P5\n11 7\n255\n" + ref.tobytes())
    body = " ".join(str(v) for v in ref.ravel())
    p2 = tmp_path / "b2.pgm"
    p2.write_text(f"P2\n# a comment\n11 7\n255\n{body}\n")
    assert np.array_equal(read_pgm(p5), read_pgm(p2))


def test_read_rejects_wrong_maxval(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(PgmError, match="maxval"):
        read_pgm(path)


def test_read_rejects_truncated_payload(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(5))
    with pytest.raises(PgmError, match="truncated"):
        read_pgm(path)


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P7\n1 1\n255\n\x00")
    with pytest.raises(PgmError, match="magic"):
        read_pgm(path)


def test_read_rejects_garbage_header(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P5\nfoo bar\n255\n\x00")
    with pytest.raises(PgmError, match="header"):
        read_pgm(path)


def test_round_trip_3x3(tmp_path):
    img = np.arange(9, dtype=np.uint8).reshape(3, 3)
    path = tmp_path / "r.pgm"
    write_pgm(img, path)
    assert np.array_equal(read_pgm(path), img)


def test_minimal_file_size(tmp_path):
    path = tmp_path / "m.pgm"
    write_pgm(np.zeros((1, 1), dtype=np.uint8), path)
    assert path.stat().st_size <= 13
    assert read_pgm(path)[0, 0] == 0


def test_round_trip_256x256_seeded(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, size=(256, 256), dtype=np.uint8)
    path = tmp_path / "big.pgm"
    write_pgm(img, path)
    # byte-compare oracle: re-encode independently from the raw array
    expected = b"P5\n256 256\n255\n" + img.tobytes()
    assert path.read_bytes() == expected
    assert np.array_equal(read_pgm(path), img)


@settings(max_examples=40, deadline=None)
@given(
    w=st.integers(1, 17),
    h=st.integers(1, 17),
    seed=st.integers(0, 2**31),
)
def test_round_trip_property(tmp_path_factory, w, h, seed):
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
    path = tmp_path_factory.mktemp("pgm") / "p.pgm"
    write_pgm(img, path)
    assert np.array_equal(read_pgm(path), img)


# ---------------------------------------------------------------------------
# Overlay
# ---------------------------------------------------------------------------

def _read_p6(path):
    data = path.read_bytes()
    assert data.startswith(b"P6\n")
    _, dims, maxval, body = data.split(b"\n", 3)
    w, h = (int(t) for t in dims.split())
    assert int(maxval) == 255
    return np.frombuffer(body[: w * h * 3], dtype=np.uint8).reshape(h, w, 3)


def test_overlay_all_false_is_gray_triplication(tmp_path):
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    path = tmp_path / "o.ppm"
    write_overlay(img, np.zeros((3, 4), dtype=bool), path)
    rgb = _read_p6(path)
    for c in range(3):
        assert np.array_equal(rgb[:, :, c], img)


def test_overlay_all_true_is_red(tmp_path):
    img = np.full((2, 2), 77, dtype=np.uint8)
    path = tmp_path / "o.ppm"
    write_overlay(img, np.ones((2, 2), dtype=bool), path)
    rgb = _read_p6(path)
    assert np.array_equal(rgb[:, :, 0], np.full((2, 2), 255))
    assert not rgb[:, :, 1].any()
    assert not rgb[:, :, 2].any()


def test_overlay_single_pixel(tmp_path):
    img = np.full((2, 3), 50, dtype=np.uint8)
    boundary = np.zeros((2, 3), dtype=bool)
    boundary[0, 0] = True
    path = tmp_path / "o.ppm"
    write_overlay(img, boundary, path)
    rgb = _read_p6(path)
    assert rgb[0, 0].tolist() == [255, 0, 0]
    others = np.delete(rgb.reshape(-1, 3), 0, axis=0)
    assert (others == 50).all()


def test_overlay_rejects_mismatched_shapes(tmp_path):
    with pytest.raises(ValueError, match="mismatch"):
        write_overlay(
            np.zeros((2, 2), dtype=np.uint8),
            np.zeros((3, 2), dtype=bool),
            tmp_path / "x.ppm",
        )


def test_label_raster_saturates_at_255():
    labels = np.array([[0, 1, 254], [255, 256, 70000]], dtype=np.int32)
    got = labels_to_gray8(labels)
    assert got.dtype == np.uint8
    assert got.tolist() == [[0, 1, 254], [255, 255, 255]]


def test_mask_raster_round_trips_through_pgm(tmp_path):
    mask = np.array([[True, False, True], [False, False, True]])
    raster = mask_to_gray8(mask)
    assert raster.dtype == np.uint8
    assert raster.tolist() == [[255, 0, 255], [0, 0, 255]]
    write_pgm(raster, tmp_path / "m.pgm")
    assert np.array_equal(read_pgm(tmp_path / "m.pgm") > 0, mask)


# ---------------------------------------------------------------------------
# Crop
# ---------------------------------------------------------------------------

def test_crop_identity():
    img = np.arange(20, dtype=np.uint8).reshape(4, 5)
    assert np.array_equal(crop(img, 0, 0, 5, 4), img)


def test_crop_index_arithmetic():
    img = np.arange(16, dtype=np.uint8).reshape(4, 4)
    assert crop(img, 1, 1, 2, 2).ravel().tolist() == [5, 6, 9, 10]


def test_crop_out_of_bounds():
    img = np.zeros((4, 4), dtype=np.uint8)
    with pytest.raises(ValueError):
        crop(img, 3, 0, 2, 2)


def test_crop_does_not_mutate_source():
    img = np.arange(16, dtype=np.uint8).reshape(4, 4)
    ref = img.copy()
    sub = crop(img, 0, 0, 2, 2)
    sub[:] = 0
    assert np.array_equal(img, ref)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_crop_composition(data):
    img = np.arange(100, dtype=np.uint8).reshape(10, 10)
    a = data.draw(st.integers(0, 5))
    b = data.draw(st.integers(0, 5))
    w1 = data.draw(st.integers(1, 10 - a))
    h1 = data.draw(st.integers(1, 10 - b))
    c = data.draw(st.integers(0, w1 - 1))
    d = data.draw(st.integers(0, h1 - 1))
    u = data.draw(st.integers(1, w1 - c))
    v = data.draw(st.integers(1, h1 - d))
    nested = crop(crop(img, a, b, w1, h1), c, d, u, v)
    direct = crop(img, a + c, b + d, u, v)
    assert np.array_equal(nested, direct)


# ---------------------------------------------------------------------------
# Phantom
# ---------------------------------------------------------------------------

def test_phantom_noise_free_two_values_and_separable():
    img, mask = generate_phantom(PhantomSpec(96, 64, 32, 10, 0.0, 3))
    assert set(np.unique(img).tolist()) == {50, 200}
    for t in range(51, 201):
        assert np.array_equal(img >= t, mask)


def test_phantom_mask_matches_lattice_rule():
    spec = PhantomSpec(40, 30, 8, 3, 7.5, 11)
    _, mask = generate_phantom(spec)
    for y in range(30):
        for x in range(40):
            expected = (x % 8 < 3) or (y % 8 < 3)
            assert mask[y, x] == expected


def test_phantom_wide_beam_foreground_fraction():
    spec = PhantomSpec(64, 64, 8, 7, 0.0, 0)
    _, mask = generate_phantom(spec)
    frac = mask.mean()
    assert frac >= 1.0 - ((8 - 7) / 8) ** 2


def test_phantom_determinism():
    spec = PhantomSpec(32, 32, 8, 3, 15.0, 42)
    img1, mask1 = generate_phantom(spec)
    img2, mask2 = generate_phantom(spec)
    assert np.array_equal(img1, img2)
    assert np.array_equal(mask1, mask2)


def test_phantom_different_seeds_differ():
    img1, _ = generate_phantom(PhantomSpec(32, 32, 8, 3, 15.0, 1))
    img2, _ = generate_phantom(PhantomSpec(32, 32, 8, 3, 15.0, 2))
    assert not np.array_equal(img1, img2)


def test_phantom_rejects_bad_specs():
    with pytest.raises(ValueError):
        PhantomSpec(32, 32, 8, 0, 0.0, 0)
    with pytest.raises(ValueError):
        PhantomSpec(32, 32, 8, 8, 0.0, 0)
    with pytest.raises(ValueError):
        PhantomSpec(32, 32, 8, 3, -1.0, 0)
    with pytest.raises(ValueError, match="noise_sigma must be non-negative"):
        PhantomSpec(32, 32, 8, 3, float("nan"), 0)
    with pytest.raises(ValueError):
        PhantomSpec(0, 32, 8, 3, 0.0, 0)
