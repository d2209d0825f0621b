import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcseg.image import (
    PgmError,
    PhantomSpec,
    as_gray,
    crop,
    generate_phantom,
    labels_to_gray8,
    mask_to_gray8,
    mirror_pad,
    read_pgm,
    scale_to_255,
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


def _scalar_passes(plane, taps, spacing, tap_sum):
    """``taps`` down each column, then along each row, with scalar loops
    and mirror indexing; ``tap_sum(taps, sample)`` is one output sample,
    where ``sample(d)`` reads d spacings from the centre."""
    h, w = plane.shape
    rows = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            rows[y, x] = tap_sum(taps, lambda d: plane[_mirror(y + d * spacing, h), x])
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            out[y, x] = tap_sum(taps, lambda d: rows[y, _mirror(x + d * spacing, w)])
    return out


def _in_tap_order(taps, sample):
    acc = 0.0
    for k, tap in enumerate(taps):
        acc += tap * sample(k - len(taps) // 2)
    return acc


def _folded(taps, sample):
    half = len(taps) // 2
    acc = taps[half] * sample(0)
    for k in range(half):
        acc += taps[k] * (sample(k - half) + sample(half - k))
    return acc


def oracle_separable(plane, taps, spacing):
    """The filter with each pass summed in tap order from zero (test oracle)."""
    return _scalar_passes(plane, taps, spacing, _in_tap_order)


def oracle_folded(plane, taps, spacing):
    """The filter with each pass folded as ``separable_filter`` documents:
    the centre tap, then each outer tap from the outside in times its
    sample plus the mirrored one (test oracle)."""
    return _scalar_passes(plane, taps, spacing, _folded)


SOBEL_SMOOTH = (1.0, 2.0, 1.0)
B3 = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


# The first five ids are those the cases had when the filter took one tap
# vector per axis; each case keeps its plane, its spacing and the
# symmetric taps of its axis pair.
@pytest.mark.parametrize(
    "shape, taps, spacing",
    [
        pytest.param((7, 9), SOBEL_SMOOTH, 1, id="shape0-taps_y0-taps_x0-1"),
        pytest.param((9, 7), SOBEL_SMOOTH, 1, id="shape1-taps_y1-taps_x1-1"),
        pytest.param((7, 9), (0.25, 0.5, 0.25), 2, id="shape2-taps_y2-taps_x2-2"),
        # reach n - 1 in y
        pytest.param((5, 9), (0.7, -3.0, 0.5, -3.0, 0.7), 2, id="shape3-taps_y3-taps_x3-2"),
        pytest.param((6, 10), (2.0,), 3, id="shape4-taps_y4-taps_x4-3"),  # one tap
        ((10, 6), (3.0, 1.0, 3.0), 5),  # reach n - 1 in x
    ],
)
def test_separable_filter_matches_scalar_oracle(shape, taps, spacing):
    plane = np.random.default_rng(12).normal(100.0, 40.0, size=shape)
    got = separable_filter(plane, taps, spacing)
    assert np.array_equal(got, oracle_folded(plane, taps, spacing))


def _mirrored_taps(half_taps):
    """Odd symmetric tap vector from its first half and centre."""
    outer = list(half_taps[:-1])
    return np.array([*outer, half_taps[-1], *reversed(outer)])


@pytest.mark.parametrize("axis", ["y", "x"])
def test_separable_filter_rejects_reach_past_one_mirror(axis):
    """Reach n - 1 on the shorter axis needs one mirror and matches the
    oracle; reach n raises, naming that axis."""
    rng = np.random.default_rng(13)
    plane = rng.normal(size=(7, 9))
    if axis == "x":
        plane = plane.T
    n = min(plane.shape)
    at_limit = _mirrored_taps(rng.normal(size=n))
    got = separable_filter(plane, at_limit)
    assert np.array_equal(got, oracle_folded(plane, at_limit, 1))
    with pytest.raises(ValueError, match=f"{axis} reach {n} exceeds n - 1 for n = {n}"):
        separable_filter(plane, _mirrored_taps(rng.normal(size=n + 1)))


@pytest.mark.parametrize("axis", ["y", "x"])
@pytest.mark.parametrize(
    "taps",
    [
        (1.0, 1.0),
        (1.0, 2.0, 3.0, 4.0),
        (1.0, 2.0, 3.0),
        (-1.0, 0.5, 1.0),
        (1.0, 2.0, -1.0),
        (-1.0, 0.0, 1.0),  # antisymmetric
        (SOBEL_SMOOTH, (-1.0, 0.0, 1.0)),  # one vector per axis
    ],
)
def test_separable_filter_rejects_even_and_asymmetric_taps(axis, taps):
    """Bad taps raise before either pass runs, whichever axis of the plane
    is the long one (every reach here fits the short axis)."""
    plane = np.ones((9, 3)) if axis == "y" else np.ones((3, 9))
    with pytest.raises(ValueError, match="taps .* not one odd symmetric vector"):
        separable_filter(plane, taps)


@st.composite
def filter_cases(draw):
    """A float plane 1..12 on each axis, a spacing of 1..3 and a symmetric
    kernel whose reach fits both axes (0 up to n - 1)."""
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    spacing = draw(st.integers(1, 3))
    values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    half = draw(st.integers(0, (min(shape) - 1) // spacing))
    taps = _mirrored_taps(draw(st.lists(values, min_size=half + 1, max_size=half + 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    plane = rng.normal(0.0, draw(st.sampled_from([1.0, 100.0, 1e6])), size=shape)
    return plane, taps, spacing


# 300 examples, or more under a profile that asks for more (the "ci"
# profile of tests/conftest.py asks for 2000).
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(case=filter_cases())
def test_separable_filter_matches_folded_oracle_on_generated_planes(case):
    plane, taps, spacing = case
    got = separable_filter(plane, taps, spacing)
    assert np.array_equal(got, oracle_folded(plane, taps, spacing))


@settings(max_examples=max(100, settings.default.max_examples), deadline=None)
@given(
    shape=st.tuples(st.integers(9, 16), st.integers(9, 16)),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_separable_filter_is_exact_on_integer_planes(shape, seed):
    """On 8-bit input the folded sums equal the tap-order sums bit for bit:
    the Sobel smoothing kernel, and the B3 kernel chained at spacings 1, 2
    and 4 as the wavelet's three levels run it (their inputs past level 1
    are multiples of 2**-8 and 2**-16, which stay exact too)."""
    plane = np.random.default_rng(seed).integers(0, 256, size=shape).astype(np.float64)
    got = separable_filter(plane, SOBEL_SMOOTH)
    assert np.array_equal(got, oracle_separable(plane, SOBEL_SMOOTH, 1))
    current = plane
    for spacing in (1, 2, 4):
        got = separable_filter(current, B3, spacing)
        assert np.array_equal(got, oracle_separable(current, B3, spacing))
        current = got


@st.composite
def uint8_plane_cases(draw):
    """A uint8 plane 3..40 on each axis, a spacing of 1..3, and the Sobel
    smoothing and B3 kernels whose reach fits it at that spacing."""
    shape = (draw(st.integers(3, 40)), draw(st.integers(3, 40)))
    spacing = draw(st.integers(1, 3))
    lo = draw(st.integers(0, 255))
    hi = draw(st.integers(lo, 255))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    plane = rng.integers(lo, hi + 1, size=shape, dtype=np.uint8)
    kernels = []
    if spacing <= min(shape) - 1:
        kernels.append(SOBEL_SMOOTH)
    if 2 * spacing <= min(shape) - 1:
        kernels += [B3, 16 * B3]
    return plane, kernels, spacing


# 300 examples, or more under a profile that asks for more.
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(case=uint8_plane_cases())
def test_separable_filter_on_uint8_equals_float64_bit_for_bit(case):
    """Integer taps on a uint8 plane sum in int32 and return float64 with
    the float64 run's bits; B3 / 16 has fractional taps and runs in float64."""
    plane, kernels, spacing = case
    for taps in kernels:
        got = separable_filter(plane, taps, spacing)
        want = separable_filter(plane.astype(np.float64), taps, spacing)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "taps",
    [
        (2900.0,),  # 255 * 2900**2 < 2**31: int32, the largest sum fits
        (2902.0,),  # 255 * 2902**2 >= 2**31: float64
        (3000.0, 3000.0, 3000.0),
    ],
)
def test_separable_filter_falls_back_to_float64_past_int32_gain(taps):
    """A gain of 2**31 or more would wrap int32 sums; such taps run in float64."""
    plane = np.random.default_rng(14).integers(0, 256, size=(5, 6), dtype=np.uint8)
    plane[2, 3] = 255
    got = separable_filter(plane, taps)
    assert got.dtype == np.float64
    assert np.array_equal(got, oracle_folded(plane.astype(np.float64), taps, 1))
    assert got.max() >= 255 * sum(taps) ** 2 / len(taps) ** 2


# Leading axes, then the padded (h, w): each pair pads by 0 .. min(h, w) - 1,
# so every reach up to n - 1 is tried on each axis, the short one included.
MIRROR_SHAPES = [(), (3,), (2, 2)]
MIRROR_PLANES = [(1, 6), (6, 1), (2, 5), (5, 2), (4, 9), (9, 4), (7, 7)]
# (input dtype, requested dtype, the dtype np.pad's result is cast to)
MIRROR_DTYPES = [
    (np.uint8, np.int32, np.int32),
    (np.uint8, np.float64, np.float64),
    (np.float64, None, np.float64),
]


def _reflect(a, reach):
    """np.pad's mirror extension of the last two axes only."""
    return np.pad(a, [(0, 0)] * (a.ndim - 2) + [(reach, reach)] * 2, mode="reflect")


@pytest.mark.parametrize("lead", MIRROR_SHAPES, ids=str)
@pytest.mark.parametrize("plane", MIRROR_PLANES, ids=str)
@pytest.mark.parametrize("dtypes", MIRROR_DTYPES, ids=lambda d: f"{d[0].__name__}-{d[1]}")
def test_mirror_pad_equals_np_pad_reflect(lead, plane, dtypes):
    """Every reach from 0 to n - 1 of the shorter axis, with 0-2 leading
    axes, in the working dtype; the input stays as it was."""
    src, dtype, want_dtype = dtypes
    a = (np.random.default_rng(15).random((*lead, *plane)) * 255).astype(src)
    before = a.copy()
    for reach in range(min(plane)):
        got = mirror_pad(a, reach, dtype)
        want = _reflect(a, reach).astype(want_dtype)
        assert got.dtype == want_dtype
        assert got.shape == want.shape and np.array_equal(got, want)
    assert np.array_equal(a, before)


@pytest.mark.parametrize(
    "view",
    [
        lambda a: a[::2, ::-1],
        lambda a: a.T,
        lambda a: a[1:-1, 3:7],
        lambda a: np.stack((a, a[::-1]))[:, ::3, ::2],
        lambda a: np.broadcast_to(a[3], (5, 9)),
    ],
    ids=["strided-reversed", "transposed", "inner-window", "stacked-strided", "broadcast"],
)
def test_mirror_pad_reads_non_contiguous_views(view):
    a = view(np.random.default_rng(16).integers(0, 256, size=(11, 9), dtype=np.uint8))
    for reach in range(min(a.shape[-2:])):
        for dtype in (None, np.int32, np.float64):
            got = mirror_pad(a, reach, dtype)
            assert got.flags.c_contiguous
            assert np.array_equal(got, _reflect(a, reach))


@pytest.mark.parametrize("axis", ["y", "x"])
def test_mirror_pad_rejects_reach_past_one_mirror(axis):
    a = np.zeros((3, 6) if axis == "y" else (6, 3))
    assert mirror_pad(a, 2).shape == ((7, 10) if axis == "y" else (10, 7))
    with pytest.raises(ValueError, match=f"{axis} reach 3 exceeds n - 1 for n = 3"):
        mirror_pad(a, 3)


@pytest.mark.parametrize("reach", [-1, 1.0, True])
def test_mirror_pad_rejects_a_reach_that_is_not_a_count(reach):
    with pytest.raises(ValueError, match="reach must be an integer of at least 0"):
        mirror_pad(np.zeros((4, 4)), reach)


def test_mirror_pad_needs_two_axes():
    with pytest.raises(ValueError, match="at least 2 axes"):
        mirror_pad(np.zeros(5), 1)


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


# Python's int() also takes these; netpbm reads unsigned decimal digits only.
@pytest.mark.parametrize("header", [b"2_0 1 255", b"+2 1 255", b"2 1_0 255", b"2 +1 255", b"2 1 +255"])
def test_read_rejects_header_field_that_is_not_ascii_digits(tmp_path, header):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P2\n" + header + b"\n1 2")
    with pytest.raises(PgmError, match="^malformed PGM header: non-numeric field"):
        read_pgm(path)


@pytest.mark.parametrize("sample", [b"3_0", b"+3", b"-0"])
def test_read_rejects_p2_sample_that_is_not_ascii_digits(tmp_path, sample):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P2 2 1 255 1 " + sample)
    with pytest.raises(PgmError, match="^malformed PGM pixel data: non-numeric value$"):
        read_pgm(path)


def test_read_rejects_header_number_past_int_digit_limit(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P2 " + b"1" * 5000 + b" 1 255 1")
    with pytest.raises(PgmError, match="^malformed PGM header: field 1 has 5000 digits$") as info:
        read_pgm(path)
    assert len(str(info.value)) < 200


def test_read_header_message_echoes_at_most_20_bytes_of_a_field(tmp_path):
    path = tmp_path / "x.pgm"
    path.write_bytes(b"P2 1 " + b"9" * 4000 + b"x" * 1000 + b" 255 1")
    with pytest.raises(PgmError, match=r"^malformed PGM header: non-numeric field 2: b'9{20}'$"):
        read_pgm(path)


def oracle_header(data, count):
    """The first ``count`` header tokens of ``data`` and the offset past the
    one whitespace byte after the last, by a byte-at-a-time lexer: ``#``
    starts a comment running to end of line (test oracle)."""
    tokens = []
    i = 0
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i : i + 1] == b"#":
            while i < n and data[i : i + 1] != b"\n":
                i += 1
            continue
        if i >= n:
            raise PgmError("malformed PGM header: unexpected end of file")
        start = i
        while i < n and not data[i : i + 1].isspace() and data[i : i + 1] != b"#":
            i += 1
        tokens.append(data[start:i])
    if i < n and data[i : i + 1].isspace():
        i += 1
    return tokens, i


def _read_bytes(path, data):
    """``read_pgm`` of ``data``: the array, or the ``PgmError`` message."""
    path.write_bytes(data)
    try:
        return read_pgm(path)
    except PgmError as exc:
        return str(exc)


def _same(a, b):
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a.dtype == b.dtype and np.array_equal(a, b)


def test_header_comments_between_every_token_and_after_maxval(tmp_path):
    path = tmp_path / "c.pgm"
    header = b"# one\n2#two\n# three\n2\n#four\n255"
    path.write_bytes(b"P5" + header + b"\n" + bytes([1, 2, 3, 4]))
    assert read_pgm(path).ravel().tolist() == [1, 2, 3, 4]
    path.write_bytes(b"P2" + header + b" 1 2\n3\t4\n")
    assert read_pgm(path).ravel().tolist() == [1, 2, 3, 4]
    # The header ends one whitespace byte after maxval, whichever; a comment there
    # is pixel data.
    path.write_bytes(b"P5 1 1 255\t\x05")
    assert read_pgm(path).tolist() == [[5]]
    path.write_bytes(b"P5" + header + b"#c\n" + bytes([1, 2]))
    assert read_pgm(path).ravel().tolist() == [ord("#"), ord("c"), ord("\n"), 1]
    path.write_bytes(b"P2" + header + b"\n# c\n1 2 3 4")
    with pytest.raises(PgmError, match="non-numeric value"):
        read_pgm(path)


def test_header_comment_may_hold_a_hash(tmp_path):
    path = tmp_path / "h.pgm"
    path.write_bytes(b"P5\n# a # b ## 7 7 255\n1 1 255\n\x09")
    assert read_pgm(path).tolist() == [[9]]


@pytest.mark.parametrize(
    "data", [b"P5\n1 1 # to the end of the file", b"P5\n1 1\n#", b"P5\n1", b"P2", b"P5 \n\t"]
)
def test_header_cut_short_is_unexpected_end_of_file(tmp_path, data):
    path = tmp_path / "e.pgm"
    path.write_bytes(data)
    with pytest.raises(PgmError, match="^malformed PGM header: unexpected end of file$"):
        read_pgm(path)


@pytest.mark.parametrize("run", [b"#", b"#\n", b" ", b"# \n \n"])
def test_long_comment_or_whitespace_header_fails_fast(tmp_path, run):
    import time

    path = tmp_path / "long.pgm"
    path.write_bytes(b"P5" + run * (200_000 // len(run)))
    start = time.perf_counter()
    with pytest.raises(PgmError):
        read_pgm(path)
    assert time.perf_counter() - start < 1.0


# Header pieces: the gaps around the three fields (whitespace and comments,
# some holding "#" or numbers), the fields, mostly valid, then the body.
_GAPS = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"#", b"# 9 #\n", b"##\n", b"\n#", b"#\r\n"]
_DIMS = [b"1", b"2", b"3", b"1", b"2", b"3", b"0", b"+2", b"x"]
_MAXVALS = [b"255", b"255", b"255", b"256", b"\xff"]
_BODY = [b" ", b"\t", b"\n", b"#", b"# c\n", b"0", b"7", b"255", b"256", b"-1", b"\x00", b"\xff"]


@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(
    magic=st.sampled_from([b"P5", b"P2"]),
    gaps=st.lists(st.lists(st.sampled_from(_GAPS), max_size=3), min_size=4, max_size=4),
    fields=st.tuples(st.sampled_from(_DIMS), st.sampled_from(_DIMS), st.sampled_from(_MAXVALS)),
    kept=st.sampled_from([3, 3, 3, 3, 2, 1, 0]),
    body=st.lists(st.sampled_from(_BODY), max_size=12),
)
def test_read_pgm_header_matches_oracle_lexer(tmp_path_factory, magic, gaps, fields, kept, body):
    """``read_pgm`` of any file equals ``read_pgm`` of the same file with
    its header rewritten from the oracle's tokens, one to a line, or both
    raise the same message."""
    header = b"".join(b"".join(gap) + field for gap, field in zip(gaps, fields[:kept]))
    data = magic + header + b"".join(gaps[-1]) + b"".join(body)
    path = tmp_path_factory.getbasetemp() / "fuzz.pgm"
    got = _read_bytes(path, data)
    try:
        tokens, offset = oracle_header(data[2:], 3)
    except PgmError as exc:
        want = str(exc)
    else:
        want = _read_bytes(path, magic + b"\n" + b"\n".join(tokens) + b"\n" + data[2 + offset :])
    assert _same(got, want)


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


@pytest.mark.parametrize(
    "values",
    [
        [[np.nan, 3.0]],
        [[3.0, np.nan]],
        [[0.0, 255.0], [np.nan, 7.0]],
        [[-0.5, 3.0]],
        [[3.0, 255.5]],
        [[-np.inf]],
        [[np.inf]],
    ],
)
def test_as_gray_rejects_values_outside_0_255(values):
    # NaN compares false both ways, so the range check is written to fail on it.
    with pytest.raises(ValueError, match=r"must lie in \[0, 255\]"):
        as_gray(np.array(values))


@pytest.mark.parametrize("values", [[[0.5]], [[0.9, 254.6]], [[3.0, 7.25]]])
def test_as_gray_rejects_fractional_values(values):
    # The uint8 cast truncates: it would read 0.9 as 0, where to_gray8 rounds to 1.
    with pytest.raises(ValueError, match="gray image values must be whole numbers"):
        as_gray(np.array(values))


@pytest.mark.parametrize("values", [[[0.0, 255.0]], [[-0.0, 7.0]], [[0, 255]], [[False, True]]])
def test_as_gray_accepts_whole_values_of_any_dtype(values):
    a = np.array(values)
    gray = as_gray(a)
    assert gray.dtype == np.uint8
    assert np.array_equal(gray, a)


@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
def test_scale_to_255_of_constant_integer_surface_is_float64_zeros(dtype):
    out = scale_to_255(np.full((3, 4), 7, dtype=dtype))
    assert out.dtype == np.float64
    assert out.shape == (3, 4)
    assert not out.any()


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
    # An infinite sigma would clamp every pixel to 0 or 255.
    with pytest.raises(ValueError, match="noise_sigma must be finite"):
        PhantomSpec(32, 32, 8, 3, float("inf"), 0)
    with pytest.raises(ValueError):
        PhantomSpec(0, 32, 8, 3, 0.0, 0)


@pytest.mark.parametrize("field", ["width", "height", "beam_period", "beam_width", "rng_seed"])
@pytest.mark.parametrize("value", [2.5, True, "8"])
def test_phantom_rejects_non_integer_fields(field, value):
    # PhantomSpec(2.5, 3) used to make a 3x3 image without complaint.
    spec = dict(width=32, height=32, beam_period=8, beam_width=3, rng_seed=0)
    with pytest.raises(ValueError, match=f"{field} must be an integer of at least"):
        PhantomSpec(**{**spec, field: value})
