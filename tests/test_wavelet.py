import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcseg.config import PipelineConfig
from lcseg.image import PhantomSpec, generate_phantom, separable_filter
from lcseg.pipeline import run_pipeline
from lcseg.wavelet import (
    check_scales,
    check_size_for_levels,
    enhance_pyramid,
    enhance_scales,
    iuwt_decompose,
    iuwt_reconstruct,
    min_size_for_levels,
)

KERNEL = [1 / 16, 4 / 16, 6 / 16, 4 / 16, 1 / 16]
B3_OVER_16 = np.array(KERNEL)
OFFSETS = [-2, -1, 0, 1, 2]


def _mirror(i, n):
    if i < 0:
        return -i
    if i > n - 1:
        return 2 * (n - 1) - i
    return i


def oracle_smooth(plane, spacing):
    """Direct separable convolution with explicit loops (test oracle)."""
    h, w = plane.shape
    rows = np.zeros_like(plane, dtype=np.float64)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for k, off in zip(KERNEL, OFFSETS):
                acc += k * plane[_mirror(y + off * spacing, h), x]
            rows[y, x] = acc
    out = np.zeros_like(rows)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for k, off in zip(KERNEL, OFFSETS):
                acc += k * rows[y, _mirror(x + off * spacing, w)]
            out[y, x] = acc
    return out


def oracle_decompose(image, levels):
    current = np.asarray(image, dtype=np.float64)
    details = []
    for j in range(1, levels + 1):
        smoothed = oracle_smooth(current, 2 ** (j - 1))
        details.append(current - smoothed)
        current = smoothed
    return current, details


def test_constant_image_annihilated():
    img = np.full((20, 20), 100, dtype=np.uint8)
    pyr = iuwt_decompose(img, 3)
    for w in pyr.details:
        assert np.abs(w).max() == 0
    assert np.allclose(pyr.smooth, 100.0)


def test_reconstruction_identity_random():
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(40, 33), dtype=np.uint8)
    for levels in (1, 2, 3):
        pyr = iuwt_decompose(img, levels)
        rec = iuwt_reconstruct(pyr)
        assert np.abs(rec - img).max() <= 1e-9


def test_impulse_matches_direct_convolution_oracle():
    img = np.zeros((9, 9), dtype=np.uint8)
    img[4, 4] = 255
    pyr = iuwt_decompose(img, 1)
    smooth_expect = oracle_smooth(img.astype(np.float64), 1)
    assert np.abs(pyr.smooth - smooth_expect).max() <= 1e-9
    assert np.abs(pyr.details[0] - (img - smooth_expect)).max() <= 1e-9
    # closed form at the impulse: w1 = 255 * (1 - (6/16)^2)
    assert pyr.details[0][4, 4] == pytest.approx(255.0 * (1 - (6 / 16) ** 2), abs=1e-9)


def test_two_level_matches_oracle():
    rng = np.random.default_rng(7)
    img = rng.integers(0, 256, size=(13, 17), dtype=np.uint8)
    pyr = iuwt_decompose(img, 2)
    smooth_expect, details_expect = oracle_decompose(img, 2)
    assert np.abs(pyr.smooth - smooth_expect).max() <= 1e-9
    for got, want in zip(pyr.details, details_expect):
        assert np.abs(got - want).max() <= 1e-9


def test_linearity_on_float_inputs():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(24, 24))
    b = rng.normal(size=(24, 24))
    pa = iuwt_decompose(a, 2)
    pb = iuwt_decompose(b, 2)
    pc = iuwt_decompose(2.5 * a - 1.5 * b, 2)
    assert np.abs(pc.smooth - (2.5 * pa.smooth - 1.5 * pb.smooth)).max() <= 1e-9
    for wc, wa, wb in zip(pc.details, pa.details, pb.details):
        assert np.abs(wc - (2.5 * wa - 1.5 * wb)).max() <= 1e-9


def test_shift_covariance_on_interior():
    rng = np.random.default_rng(9)
    img = rng.integers(0, 256, size=(40, 40), dtype=np.uint8)
    shifted = np.roll(img, (3, 5), axis=(0, 1))
    p1 = iuwt_decompose(img, 2)
    p2 = iuwt_decompose(shifted, 2)
    # compare interior pixels at least kernel support away from any border
    margin = 2 * 2 + 3 + 5
    a = np.roll(p1.details[1], (3, 5), axis=(0, 1))[margin:-margin, margin:-margin]
    b = p2.details[1][margin:-margin, margin:-margin]
    assert np.abs(a - b).max() <= 1e-9


def test_too_small_image_rejected():
    img = np.zeros((8, 8), dtype=np.uint8)
    assert min_size_for_levels(2) == 9
    with pytest.raises(ValueError, match="too small"):
        iuwt_decompose(img, 2)
    iuwt_decompose(np.zeros((9, 9), dtype=np.uint8), 2)  # boundary case fits


def test_levels_below_one_rejected():
    with pytest.raises(ValueError, match="levels must be at least 1"):
        check_size_for_levels((64, 64), 0)
    with pytest.raises(ValueError, match=r"kept_scales \(1,\) outside the wavelet levels 1\.\.0"):
        check_scales(0, (1,))


def test_partial_sum_matches_independent_recomputation():
    img = np.zeros((9, 9), dtype=np.uint8)
    img[4, 4] = 255
    pyr = iuwt_decompose(img, 2)
    got = pyr.smooth + pyr.details[0]
    smooth_expect, details_expect = oracle_decompose(img, 2)
    want = smooth_expect + details_expect[0]
    assert np.abs(got - want).max() <= 1e-9


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), levels=st.integers(1, 3))
def test_reconstruction_property(seed, levels):
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, size=(17, 19), dtype=np.uint8)
    rec = iuwt_reconstruct(iuwt_decompose(img, levels))
    assert np.abs(rec - img).max() <= 1e-9


@st.composite
def _float_planes(draw):
    shape = (draw(st.integers(9, 24)), draw(st.integers(9, 24)))
    scale = 10.0 ** draw(st.floats(-3, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.normal(0.0, scale, size=shape)
    return rng.uniform(-1e6, 1e6, size=shape)


# 300 examples, or more under a profile that asks for more.
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(plane=_float_planes())
def test_integer_taps_scaled_once_equal_b3_taps_bit_for_bit(plane):
    """Filtering with [1, 4, 6, 4, 1] and scaling by 1/256 gives the bits of
    filtering with the taps over 16: power-of-two scaling commutes with
    rounding."""
    pyr = iuwt_decompose(plane, 2)
    current = plane
    for j, spacing in enumerate((1, 2)):
        smoothed = separable_filter(current, B3_OVER_16, spacing)
        assert pyr.details[j].tobytes() == (current - smoothed).tobytes()
        current = smoothed
    assert pyr.smooth.tobytes() == current.tobytes()


def test_details_are_formed_once_when_read():
    """Indexing, negative indices, slices and iteration read the same planes."""
    img = np.random.default_rng(4).integers(0, 256, size=(20, 20), dtype=np.uint8)
    pyr = iuwt_decompose(img, 3)
    planes = list(pyr.details)
    assert len(planes) == pyr.levels == 3
    assert all(pyr.details[j] is planes[j] for j in range(3))
    assert pyr.details[-1] is planes[2]
    assert all(w is v for w, v in zip(pyr.details[1:], planes[1:]))
    with pytest.raises(IndexError):
        pyr.details[3]


@pytest.mark.parametrize("kept", [(2, 3), (1, 3)])
def test_enhancement_forms_no_detail_plane(monkeypatch, kept):
    """``enhance_scales`` reads the approximations it needs and never
    ``details``, so the pyramid of its decomposition holds no planes."""
    import lcseg.wavelet

    pyramids = []

    def spy(image, levels):
        pyramids.append(iuwt_decompose(image, levels))
        return pyramids[-1]

    monkeypatch.setattr(lcseg.wavelet, "iuwt_decompose", spy)
    img = np.random.default_rng(6).integers(0, 256, size=(20, 20), dtype=np.uint8)
    enhance_scales(img, 3, kept)
    assert len(pyramids) == 1
    assert "details" not in vars(pyramids[0])


def test_default_enhancement_makes_few_float_frames():
    """Peak traced memory of the default ``enhance_scales`` on a 256x256
    uint8 frame, in float64 frames: the int32 level, c_1 and the rescale
    come to 3.13; float64 filtering and the unread w_1 took 5.14."""
    img = np.random.default_rng(29).integers(0, 256, size=(256, 256), dtype=np.uint8)
    tracemalloc.start()
    try:
        enhance_scales(img, 3, (2, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * img.size * 8


# ---------------------------------------------------------------------------
# enhance_scales
# ---------------------------------------------------------------------------

def test_enhance_full_selection_is_rescaled_input():
    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, size=(20, 20), dtype=np.uint8)
    img[0, 0] = 0
    img[0, 1] = 255  # input spans the full range -> exact identity
    out = enhance_scales(img, 3, (1, 2, 3))
    assert np.array_equal(out, img)


def test_enhance_constant_input_all_zero():
    img = np.full((20, 20), 42, dtype=np.uint8)
    out = enhance_scales(img, 2, (1, 2))
    assert not out.any()


def test_enhance_rescale_oracle():
    rng = np.random.default_rng(8)
    img = rng.integers(40, 90, size=(12, 12), dtype=np.uint8)
    pyr = iuwt_decompose(img, 2)
    out = enhance_scales(img, 2, (2,))
    total = pyr.smooth + pyr.details[1]
    lo, hi = total.min(), total.max()
    want = np.floor((total - lo) / (hi - lo) * 255.0 + 0.5)
    assert np.array_equal(out, want.astype(np.uint8))


def test_enhance_rejects_bad_selection():
    img = np.zeros((9, 9), dtype=np.uint8)
    with pytest.raises(ValueError):
        enhance_scales(img, 2, ())
    with pytest.raises(ValueError):
        enhance_scales(img, 2, (3,))
    with pytest.raises(ValueError):
        enhance_scales(img, 2, (0,))


def test_kept_scales_must_be_integers():
    img = np.zeros((17, 17), dtype=np.uint8)
    for kept in ((2.5,), (True, 3)):
        with pytest.raises(ValueError, match="kept_scales entry must be an integer"):
            check_scales(3, kept)
        with pytest.raises(ValueError, match="kept_scales entry must be an integer"):
            enhance_scales(img, 3, kept)


def _oracle_enhance(img, levels, kept):
    """c_J + sum of the kept details of the full pyramid, rescaled and rounded half-up."""
    pyr = iuwt_decompose(img, levels)
    total = pyr.smooth.copy()
    for j in sorted(kept):
        total += pyr.details[j - 1]
    lo, hi = total.min(), total.max()
    if hi == lo:
        return np.zeros(total.shape, dtype=np.uint8)
    return np.floor((total - lo) / (hi - lo) * 255.0 + 0.5).astype(np.uint8)


@st.composite
def _enhance_cases(draw):
    levels = draw(st.integers(1, 4))
    subsets = [
        tuple(j for j in range(1, levels + 1) if mask >> (j - 1) & 1)
        for mask in range(1, 2**levels)
    ]
    kept = draw(st.sampled_from(subsets))
    need = min_size_for_levels(levels)
    h = draw(st.integers(need, need + 12))
    w = draw(st.integers(need, need + 12))
    lo = draw(st.integers(0, 255))
    hi = draw(st.integers(lo, 255))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    img = rng.integers(lo, hi + 1, size=(h, w), dtype=np.uint8)
    return img, levels, kept


# 300 examples, or more under a profile that asks for more (the "ci"
# profile of tests/conftest.py asks for 2000).
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
@given(case=_enhance_cases())
def test_enhance_matches_full_pyramid_bit_for_bit(case):
    img, levels, kept = case
    got = enhance_scales(img, levels, kept)
    assert got.dtype == np.uint8
    assert got.tobytes() == _oracle_enhance(img, levels, kept).tobytes()
    full = enhance_pyramid(iuwt_decompose(img, levels), levels, kept)
    assert full.tobytes() == got.tobytes()


@pytest.fixture
def decompose_depths(monkeypatch):
    """The depth of every call to ``lcseg.wavelet.iuwt_decompose``, in order."""
    import lcseg.wavelet

    depths = []
    full = lcseg.wavelet.iuwt_decompose

    def spy(image, levels):
        depths.append(levels)
        return full(image, levels)

    monkeypatch.setattr(lcseg.wavelet, "iuwt_decompose", spy)
    return depths


@pytest.mark.parametrize(
    "levels, kept, depth",
    [(3, (2, 3), 1), (3, (1, 2), 3), (3, (1, 3), 2), (3, (1, 2, 3), 1)],
)
def test_enhance_decomposes_to_the_deepest_dropped_scale(levels, kept, depth, decompose_depths):
    img, _ = generate_phantom(PhantomSpec(32, 32, 16, 5, 20.0, 3))
    assert np.array_equal(enhance_scales(img, levels, kept), _oracle_enhance(img, levels, kept))
    assert decompose_depths == [depth]


@pytest.mark.parametrize(
    "levels, kept, depth",
    [(3, (2, 3), 1), (3, (1, 2), 3), (3, (1, 3), 2), (3, (1, 2, 3), 1), (4, (3,), 4)],
)
def test_enhance_pyramid_reads_any_pyramid_deep_enough(levels, kept, depth):
    """Every depth from the deepest dropped scale up gives enhance_scales'
    bytes; a shallower pyramid raises."""
    img, _ = generate_phantom(PhantomSpec(40, 40, 16, 5, 20.0, 4))
    want = enhance_scales(img, levels, kept)
    for d in range(depth, levels + 1):
        assert enhance_pyramid(iuwt_decompose(img, d), levels, kept).tobytes() == want.tobytes()
    for d in range(1, depth):
        with pytest.raises(ValueError, match=f"reads {depth} levels, the pyramid has {d}"):
            enhance_pyramid(iuwt_decompose(img, d), levels, kept)


def test_enhance_pyramid_checks_the_kept_scales():
    pyramid = iuwt_decompose(np.zeros((20, 20), dtype=np.uint8), 3)
    with pytest.raises(ValueError, match="outside the wavelet levels 1..3"):
        enhance_pyramid(pyramid, 3, (4,))
    with pytest.raises(ValueError, match="kept_scales must be non-empty"):
        enhance_pyramid(pyramid, 3, ())


def test_default_pipeline_decomposes_one_level_per_image(decompose_depths):
    for seed in (1, 2):
        img, truth = generate_phantom(PhantomSpec(64, 64, 16, 5, 20.0, seed))
        run_pipeline(img, truth, PipelineConfig())
    assert decompose_depths == [1, 1]


def test_enhance_improves_mask_correlation_on_noisy_phantom():
    img, mask = generate_phantom(PhantomSpec(128, 128, 32, 10, 20.0, 4))
    enhanced = enhance_scales(img, 3, (2, 3))

    def point_biserial(values, binary):
        v = values.astype(np.float64).ravel()
        b = binary.ravel().astype(np.float64)
        return float(np.corrcoef(v, b)[0, 1])

    assert point_biserial(enhanced, mask) > point_biserial(img, mask)
