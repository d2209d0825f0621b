import numpy as np
import pytest

from lcseg.config import PipelineConfig, RoiRect
from lcseg.image import PhantomSpec, generate_phantom
from lcseg.pipeline import PipelineError, run_pipeline, write_outputs

FAST_BAT = dict(population=8, iterations=30)


def _fast_config(seed=0, **kwargs):
    from dataclasses import replace

    from lcseg.bat import BatParams

    cfg = PipelineConfig(**kwargs)
    return replace(cfg, bat=BatParams(seed=seed, **FAST_BAT))


def test_pipeline_produces_consistent_result():
    img, truth = generate_phantom(PhantomSpec(64, 64, 16, 5, 0.0, 1))
    res = run_pipeline(img, truth, _fast_config())
    assert res.enhanced.shape == img.shape
    assert 0 <= res.threshold <= 255
    assert res.labels.shape == img.shape
    assert res.mask.dtype == bool
    assert res.labels.max() >= 1
    assert res.report is not None
    assert res.roc is not None
    assert not (res.boundary & ~res.mask).any()


def test_pipeline_result_is_the_segmentation_of_its_frame():
    from lcseg.pipeline import Segmentation, segment

    img, _ = generate_phantom(PhantomSpec(64, 64, 16, 5, 20.0, 1))
    cfg = _fast_config(roi=RoiRect(8, 8, 48, 48))
    res = run_pipeline(img, None, cfg)
    seg = segment(res.enhanced[8:56, 8:56], cfg.h_min, res.threshold)
    assert isinstance(res, Segmentation)
    for name, value in vars(seg).items():
        assert np.array_equal(getattr(res, name), value), name
    assert res.degenerate == seg.degenerate


def test_pipeline_without_truth_skips_metrics():
    img, _ = generate_phantom(PhantomSpec(64, 64, 16, 5, 0.0, 1))
    res = run_pipeline(img, None, _fast_config())
    assert res.report is None
    assert res.roc is None
    assert res.mask.shape == img.shape


def test_pipeline_constant_image_degenerate():
    img = np.full((64, 64), 80, dtype=np.uint8)
    truth = np.zeros((64, 64), dtype=bool)
    truth[:10] = True
    res = run_pipeline(img, truth, _fast_config())
    assert res.degenerate
    assert res.report is not None  # metrics still emitted


def test_pipeline_roi_crops_everything():
    img, truth = generate_phantom(PhantomSpec(96, 96, 16, 5, 0.0, 2))
    cfg = _fast_config(roi=RoiRect(8, 8, 48, 48))
    res = run_pipeline(img, truth, cfg)
    assert res.cropped.shape == (48, 48)
    assert res.mask.shape == (48, 48)
    assert res.truth.shape == (48, 48)
    # pre-cropped truth is accepted too and gives the same report
    res2 = run_pipeline(img, truth[8:56, 8:56], cfg)
    assert res2.report == res.report


def test_pipeline_roi_truth_shape_mismatch(monkeypatch):
    from lcseg import bat

    monkeypatch.setattr(bat, "optimize_threshold", _refuse_bat)
    img, truth = generate_phantom(PhantomSpec(96, 96, 16, 5, 0.0, 2))
    cfg = _fast_config(roi=RoiRect(8, 8, 48, 48))
    mismatch = r"\[input\] dimension mismatch: truth vs frame \(20, 20\)"
    with pytest.raises(PipelineError, match=mismatch):
        run_pipeline(img, truth[:20, :20], cfg)


def test_segment_checks_fixed_threshold_before_the_gradient(monkeypatch):
    from lcseg import watershed
    from lcseg.pipeline import segment

    def refuse(*args, **kwargs):
        raise AssertionError("the gradient ran before the threshold was checked")

    monkeypatch.setattr(watershed, "gradient_magnitude", refuse)
    img, _ = generate_phantom(PhantomSpec(16, 16, 8, 3, 0.0, 0))
    with pytest.raises(ValueError, match=r"threshold must be in 0\.\.255"):
        segment(img, 5.0, 300)


@pytest.mark.parametrize("h_min", [-1.0, float("nan")])
def test_segment_checks_h_min_like_the_config_before_the_gradient(monkeypatch, h_min):
    from lcseg import watershed
    from lcseg.pipeline import segment

    def refuse(*args, **kwargs):
        raise AssertionError("the gradient ran before h_min was checked")

    monkeypatch.setattr(watershed, "gradient_magnitude", refuse)
    with pytest.raises(ValueError) as from_config:
        PipelineConfig(h_min=h_min)
    with pytest.raises(ValueError) as from_segment:
        segment(np.zeros((8, 8), dtype=np.uint8), h_min, 128)
    assert str(from_segment.value) == str(from_config.value) == "h_min must be non-negative"


def test_pipeline_stage_error_is_tagged():
    img = np.zeros((8, 8), dtype=np.uint8)  # too small for 3 levels
    with pytest.raises(PipelineError, match=r"\[input\]"):
        run_pipeline(img, None, PipelineConfig())


def _refuse_bat(*args, **kwargs):
    raise AssertionError("the bat ran before the ROI was checked")


def test_pipeline_small_roi_with_truth_fails_at_entry(monkeypatch):
    from lcseg import bat

    monkeypatch.setattr(bat, "optimize_threshold", _refuse_bat)
    img, truth = generate_phantom(PhantomSpec(64, 64, 16, 5, 0.0, 1))
    cfg = _fast_config(roi=RoiRect(4, 4, 8, 8))
    with pytest.raises(PipelineError, match=r"\[input\].*11x11") as err:
        run_pipeline(img, truth, cfg)
    assert err.value.stage == "input"


def test_pipeline_roi_below_sobel_fails_at_entry(monkeypatch):
    from lcseg import bat

    monkeypatch.setattr(bat, "optimize_threshold", _refuse_bat)
    img, _ = generate_phantom(PhantomSpec(64, 64, 16, 5, 0.0, 1))
    with pytest.raises(PipelineError, match=r"\[input\].*3x3"):
        run_pipeline(img, None, _fast_config(roi=RoiRect(0, 0, 2, 40)))


def test_pipeline_whole_image_below_ssim_window_fails_at_entry(monkeypatch):
    # Without a ROI the frame is the whole image: 8x8 passes one wavelet
    # level but not SSIM, which used to reject it only in [metrics].
    from lcseg import bat

    monkeypatch.setattr(bat, "optimize_threshold", _refuse_bat)
    img, truth = generate_phantom(PhantomSpec(8, 8, 4, 2, 0.0, 1))
    cfg = _fast_config(wavelet_levels=1, kept_scales=(1,))
    with pytest.raises(PipelineError, match=r"^\[input\] image 8x8 .*11x11") as err:
        run_pipeline(img, truth, cfg)
    assert err.value.stage == "input"


@pytest.mark.parametrize(
    "image, message",
    [
        (np.full((32, 32), 300.0), "gray image values must lie in"),
        (np.full((32, 32), np.nan), "gray image values must lie in"),
        (np.zeros((32, 32, 3)), "expected a non-empty 2-D image"),
        (np.full((32, 32), 0.5), "gray image values must be whole numbers"),
    ],
)
def test_pipeline_bad_image_fails_in_input_stage(image, message):
    with pytest.raises(PipelineError, match=rf"^\[input\] {message}") as err:
        run_pipeline(image, None, PipelineConfig())
    assert err.value.stage == "input"


def test_pipeline_truth_shape_mismatch_without_roi_fails_at_entry(monkeypatch):
    from lcseg import bat

    monkeypatch.setattr(bat, "optimize_threshold", _refuse_bat)
    img, truth = generate_phantom(PhantomSpec(64, 64, 16, 5, 0.0, 1))
    with pytest.raises(PipelineError, match=r"\[input\] dimension mismatch: truth vs frame"):
        run_pipeline(img, truth[:, :40], _fast_config())


@pytest.mark.parametrize("roi", [RoiRect(40, 8, 32, 32), RoiRect(0, 60, 16, 16)])
def test_pipeline_roi_outside_image_fails_at_entry(monkeypatch, roi):
    from lcseg import bat

    monkeypatch.setattr(bat, "optimize_threshold", _refuse_bat)
    img, truth = generate_phantom(PhantomSpec(64, 64, 16, 5, 0.0, 1))
    for t in (None, truth):
        with pytest.raises(PipelineError, match=r"\[input\] crop rectangle .* exceeds image 64x64"):
            run_pipeline(img, t, _fast_config(roi=roi))


def _refuse_wavelet(*args, **kwargs):
    raise AssertionError("the wavelet ran before the image size was checked")


def test_pipeline_image_too_small_for_wavelet_fails_at_entry(monkeypatch):
    from lcseg import pipeline

    monkeypatch.setattr(pipeline, "enhance_scales", _refuse_wavelet)
    img, truth = generate_phantom(PhantomSpec(12, 12, 6, 2, 0.0, 1))
    for t in (None, truth):
        with pytest.raises(
            PipelineError, match=r"\[input\] image 12x12 too small for 3 levels"
        ) as err:
            run_pipeline(img, t, _fast_config())
        assert err.value.stage == "input"
    # one axis short is enough; the smallest admissible size passes the check
    with pytest.raises(PipelineError, match=r"\[input\] image 40x16 too small"):
        run_pipeline(np.zeros((16, 40), dtype=np.uint8), None, _fast_config())
    # 17x17 passes [input]; the refusing wavelet's own error surfaces unwrapped.
    with pytest.raises(AssertionError, match=r"^the wavelet ran"):
        run_pipeline(np.zeros((17, 17), dtype=np.uint8), None, _fast_config())


def test_stage_programming_errors_are_not_wrapped(monkeypatch):
    from lcseg import pipeline

    def broken(*args, **kwargs):
        raise TypeError("broken stage")

    monkeypatch.setattr(pipeline, "enhance_scales", broken)
    img, _ = generate_phantom(PhantomSpec(64, 64, 16, 5, 0.0, 1))
    with pytest.raises(TypeError, match="broken stage"):
        run_pipeline(img, None, _fast_config())


def test_pipeline_small_roi_without_truth_still_runs():
    img, _ = generate_phantom(PhantomSpec(64, 64, 16, 5, 0.0, 1))
    res = run_pipeline(img, None, _fast_config(roi=RoiRect(4, 4, 8, 8)))
    assert res.mask.shape == (8, 8)


def test_pipeline_threshold_override_mode(monkeypatch):
    # The bat's threshold splits the basins by their means over the
    # enhanced frame: a threshold of 0 makes every basin whose mean is
    # above 0, here all of them, tissue.
    from lcseg import bat
    from lcseg.watershed import labels_to_mask

    img, truth = generate_phantom(PhantomSpec(64, 64, 16, 5, 0.0, 3))
    res = run_pipeline(img, truth, _fast_config())
    assert np.array_equal(res.mask, labels_to_mask(res.labels, res.enhanced, res.threshold))
    assert np.array_equal(res.mask, truth)
    found = bat.optimize_threshold
    monkeypatch.setattr(bat, "optimize_threshold", lambda *a: (0, found(*a)[1]))
    assert run_pipeline(img, truth, _fast_config()).mask.all()


def test_pipeline_basin_at_the_threshold_is_pore(monkeypatch):
    # The bat's t splits its Otsu classes {v <= t} and {v > t}, and so
    # does the basin split: a basin whose mean is t is pore, one whose
    # mean is t + 0.5 is tissue.
    from fractions import Fraction

    from lcseg import bat

    img, truth = generate_phantom(PhantomSpec(64, 64, 16, 5, 20.0, 4))
    res = run_pipeline(img, truth, _fast_config())
    labels = res.labels
    counts = np.bincount(labels.ravel())
    sums = np.bincount(labels.ravel(), weights=res.enhanced.ravel())
    means = {k: Fraction(int(sums[k]), int(counts[k])) for k in range(1, counts.size)}
    whole = {int(m): k for k, m in means.items() if m.denominator == 1}
    half = {int(m): k for k, m in means.items() if m.denominator == 2}  # keyed by m - 0.5
    t = min(whole.keys() & half.keys())
    found = bat.optimize_threshold
    monkeypatch.setattr(bat, "optimize_threshold", lambda *a: (t, found(*a)[1]))
    res = run_pipeline(img, truth, _fast_config())
    assert res.threshold == t and np.array_equal(res.labels, labels)
    assert not res.mask[labels == whole[t]].any()
    assert res.mask[labels == half[t]].all()


def test_segment_splits_the_noise_free_phantom_at_otsu():
    # Pores are 50 and beams 200, so Otsu's t is 50 and every pore basin
    # has mean t: the split must put them in the lower class.
    from lcseg import bat, histeq
    from lcseg.pipeline import segment

    img, truth = generate_phantom(PhantomSpec(64, 64, 16, 5, 0.0, 7))
    t = bat.otsu_threshold(histeq.histogram(img))
    assert t == 50
    assert np.array_equal(segment(img, PipelineConfig().h_min, t).mask, truth)


def test_outputs_manifest(tmp_path):
    img, truth = generate_phantom(PhantomSpec(64, 64, 16, 5, 0.0, 1))
    res = run_pipeline(img, truth, _fast_config())
    written = write_outputs(res, tmp_path)
    expected = {
        "enhanced.pgm",
        "equalized.pgm",
        "labels.pgm",
        "mask.pgm",
        "overlay.ppm",
        "convergence.csv",
        "report.csv",
        "roc.csv",
        "roc_baseline.csv",
    }
    assert expected <= set(written)
    for name in expected:
        assert (tmp_path / name).exists()


def test_outputs_dump_adds_gradient(tmp_path):
    img, _ = generate_phantom(PhantomSpec(64, 64, 16, 5, 0.0, 1))
    res = run_pipeline(img, None, _fast_config())
    written = write_outputs(res, tmp_path, dump=True)
    assert "gradient.pgm" in written


def test_end_to_end_determinism_byte_identical(tmp_path):
    img, truth = generate_phantom(PhantomSpec(64, 64, 16, 5, 10.0, 4))
    cfg = _fast_config(seed=11)
    for sub in ("a", "b"):
        res = run_pipeline(img, truth, cfg)
        write_outputs(res, tmp_path / sub)
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


# sha256 of each file write_outputs(..., dump=True) writes for the 64x64
# phantoms of test_artifacts_are_pinned, keyed by noise sigma.
_PINNED = {
    0.0: {
        "convergence.csv": "b0601de70298f7fc5e418ab00c41b9e1205f77fb5f8e6d9f582afefeefc4c101",
        "enhanced.pgm": "dd534a20a8206febfd9ef8e013b3618f6414b90d23c29cf54619c9b44b36704a",
        "equalized.pgm": "31961fb4028fd2a794649614dc4f8c507b2acb32f8f2869c5c84a5fa17405645",
        "gradient.pgm": "908e04f5a70020669c42c630d4cea83af4093d93f7c11facac8dd607d73e6499",
        "labels.pgm": "b29464e55c3e7c843144228f216c69a7f1e67d773f77de7cd893635ce09824fa",
        "mask.pgm": "e0df4ce9571d37c10295040f178f03fa02fcae13cc6e83b935ffc862662748f9",
        "overlay.ppm": "60f8fea8aa50a6d7ad0a9f5278ce1676aa8c75a7332deccd237c00229999d0aa",
        "report.csv": "028adecc4ad6600c92b356975adff2fff7f54299931451119726268f07d7b5d0",
        "roc.csv": "bc2797f89e3b2e376ce8db5a69961e976dd3d8653fecdeb3bc3294df84dbb03e",
        "roc_baseline.csv": "94b1be1387ab5e3ce3cb0e402fb456ab6219c51830a3d63bcf6da137791cccdb",
    },
    20.0: {
        "convergence.csv": "5c501cbb46e0c5d7fd599e829841526eeaed165aa121f300adc46a9fe8cae485",
        "enhanced.pgm": "d6d04e8d4b0c1af7a84d4a4a22e7a5345cb5b5dd5b7ac37fa7edd4ed9eaf884c",
        "equalized.pgm": "0687a13e380b8b5f101aaa261a94be0e37ebc64f29854cba51064ad5d1bdfdb2",
        "gradient.pgm": "91708bd86f9cd190f690ab13f3a4ddf639a59bea34cd0e19593ec68b4ed5c2ec",
        "labels.pgm": "b8234a49311e925dc9534942fac1393e30b09b9b454e2278ff7f99462ee56dac",
        "mask.pgm": "7c328e6f2e1c7d5fd5afa95bf8940c627a4a8b1ab7bfb6e879758b49c3eee01b",
        "overlay.ppm": "732abbfb42c268fd0939b0f343fd5e24bc0f8bae5344c5405c8dce847c13886b",
        "report.csv": "89264370ad3a3faa72e99b4315ab4cae5b15632d506da4e10075d88bc7670d40",
        "roc.csv": "4a98f0ca0e77a342357f2573dd5e5e4844c24239e1caaaf8de84fc0b9cc7f1a4",
        "roc_baseline.csv": "9b4f4496b39779fcdf54b684d6cbc70f4133426c7b7ba42e4f47d5df2f32d0cd",
    },
}


@pytest.mark.parametrize("rule", ["otsu", "threshold"])
@pytest.mark.parametrize("sigma", [0.0, 20.0])
def test_artifacts_are_pinned(tmp_path, monkeypatch, sigma, rule):
    """Every dumped artifact matches a recorded sha256, not just a rerun.

    The hashes were taken at commit 5ab9498, before pipeline.segment(),
    the stored ROC rates and the shared 8-bit quantizer existed, under
    numpy 2.4.6 on Python 3.11.  The gradient, labels, mask, overlay and
    report were re-taken when the watershed cut of the enhanced frame,
    with basins split by the bat's threshold, replaced the flood of the
    equalized one.  A change that moves any byte of any artifact fails
    here; if that change is deliberate, say why and record the new hashes.

    ``rule`` picks the threshold that splits the basins: the bat's
    ("threshold") or the exact Otsu split of the enhanced image, as
    ``lcseg segment`` takes it when given none ("otsu"; the bat's run and
    its convergence curve are kept).  On these phantoms both classify
    every basin alike, so one set of hashes pins both.
    """
    import hashlib

    from lcseg import bat, histeq

    if rule == "otsu":
        found = bat.optimize_threshold

        def otsu_split(image, params):
            split = bat.otsu_threshold(histeq.histogram(image))
            return split, found(image, params)[1]

        monkeypatch.setattr(bat, "optimize_threshold", otsu_split)
    img, truth = generate_phantom(PhantomSpec(64, 64, 16, 5, sigma, 4))
    res = run_pipeline(img, truth, _fast_config(seed=11))
    if rule == "otsu":  # the split is not the bat's, yet no byte moves
        assert res.threshold != int(res.bat_state.best_position)
    written = write_outputs(res, tmp_path, dump=True)
    want = _PINNED[sigma]
    assert sorted(written) == sorted(want)
    got = {n: hashlib.sha256((tmp_path / n).read_bytes()).hexdigest() for n in written}
    assert got == want


# The data row of report.csv for the default pipeline, with truth, on the
# phantoms of test_watershed.PIPELINE_LABEL_PINS (the sizes the benchmark
# runs).  Taken at commit 1700f44, before SSIM moved to four filtered planes
# and a folded window of its own; that change reorders SSIM's sums, which
# could flip its sixth digit here while the 64x64 artifact pins above hold.
# The mask columns (F-measure, Rand index, sensitivity, specificity and
# accuracy) were re-taken when the watershed cut replaced the flood; PSNR,
# MSE and SSIM compare the enhanced frame with the input and did not move.
REPORT_ROW_PINS = {
    (256, 32, 10, 20.0): "18.3863,942.867,0.998483,0.996801,100,99.661,59.8695,99.8398",
    (256, 32, 10, 0.0): "14.6003,2254.52,1,1,100,100,58.522,100",
    (128, 16, 4, 20.0): "17.6638,1113.52,0.988553,0.97994,100,98.1988,75.4074,98.9868",
}


@pytest.mark.parametrize("size, period, beam, sigma", list(REPORT_ROW_PINS))
def test_report_row_is_pinned_at_benchmark_size(size, period, beam, sigma):
    from lcseg.metrics import report_csv

    img, truth = generate_phantom(PhantomSpec(size, size, period, beam, sigma, 7))
    report = run_pipeline(img, truth, PipelineConfig()).report
    assert report_csv(report).splitlines()[1] == REPORT_ROW_PINS[(size, period, beam, sigma)]


# sha256 of the raw float64 planes of the default wavelet decomposition
# (the smooth plane, then the detail planes from the finest), and the repr
# of SSIM between the enhanced frame and the input frame, on the same
# phantoms.  Taken at commit 3e68c47, before the wavelet, the Sobel
# gradient and SSIM moved to one folded filter.  The PGM pins quantize the
# planes to 8 bits and report.csv keeps six digits of SSIM; these see an ulp.
FLOAT_PLANE_PINS = {
    (256, 32, 10, 20.0): (
        "9c88b41d242203bad9d076cdf46217380be7f8557c6ab399cac6853a52d7ae5a",
        "2f68f9fb58f6ceb9c9c2521008a0a8a62ec3a0db6ff999eb9d4cec8958090ab6",
        "7dd3d1aaae53832aae6baa84e0d93021c263b9271cb935ef279a6bcec05bf64c",
        "b5085c77ecbb3a1a6045bfe552aeaffce75d7c659a257ad9b920ca92a18aa532",
        "0.5986954111992675",
    ),
    (256, 32, 10, 0.0): (
        "f3fd925ef5a965f6d1630de3412f7736fc087dedde02c67fcb5e98b3120eec54",
        "85276cd331d39a124010b19f68e6a89fb75bdc5cb128b5ea249b58aff8baf2a5",
        "f8d7cdd3b913bc167e6e9b874d58e8e06c665404f1ffa5ba2d4b66da7db98492",
        "d9e4ddfc51c74cec6e6606b91416870caa422153341e70c538927529dcfdaa83",
        "0.5852200129993925",
    ),
    (128, 16, 4, 20.0): (
        "018280b9ab3e5cc97343c78874444482a5df9768053ab5ce8d867f76dc8d1832",
        "82b1251d12a6435047f44670406a0d35d4e77f63519b3aeb16e405bdc3efd9aa",
        "a5bf4863e692aa24daf67a86a16adae009653c4086d38a616eb114f87219e21f",
        "29f1a43ddcd0753ad2229d2c43714a8acc6d21343593126ded3e7d1e8aec8cac",
        "0.7540740767057927",
    ),
}


@pytest.mark.parametrize("size, period, beam, sigma", list(FLOAT_PLANE_PINS))
def test_wavelet_planes_and_ssim_are_pinned_at_benchmark_size(size, period, beam, sigma):
    import hashlib

    from lcseg.metrics import ssim
    from lcseg.wavelet import enhance_scales, iuwt_decompose

    cfg = PipelineConfig()
    img, _ = generate_phantom(PhantomSpec(size, size, period, beam, sigma, 7))
    pyramid = iuwt_decompose(img, cfg.wavelet_levels)
    planes = (pyramid.smooth, *pyramid.details)
    got = [hashlib.sha256(np.ascontiguousarray(p).tobytes()).hexdigest() for p in planes]
    enhanced = enhance_scales(img, cfg.wavelet_levels, cfg.kept_scales)
    got.append(repr(ssim(enhanced, img)))
    assert tuple(got) == FLOAT_PLANE_PINS[(size, period, beam, sigma)]
