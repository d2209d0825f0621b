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
    seg = segment(res.cropped, cfg.h_min)
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
        raise AssertionError("the gradient ran before fixed_threshold was checked")

    monkeypatch.setattr(watershed, "gradient_magnitude", refuse)
    img, _ = generate_phantom(PhantomSpec(16, 16, 8, 3, 0.0, 0))
    with pytest.raises(ValueError, match=r"fixed_threshold must be in 0\.\.255"):
        segment(img, 5.0, fixed_threshold=300)


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
        segment(np.zeros((8, 8), dtype=np.uint8), h_min)
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


def test_pipeline_threshold_override_mode():
    img, truth = generate_phantom(PhantomSpec(64, 64, 16, 5, 0.0, 3))
    res = run_pipeline(img, truth, _fast_config(basin_rule="threshold"))
    assert res.mask.shape == img.shape


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
# phantoms of test_artifacts_are_pinned.  Files the basin rule leaves
# alone are keyed by noise sigma only.
_PINNED_COMMON = {
    0.0: {
        "convergence.csv": "b0601de70298f7fc5e418ab00c41b9e1205f77fb5f8e6d9f582afefeefc4c101",
        "enhanced.pgm": "dd534a20a8206febfd9ef8e013b3618f6414b90d23c29cf54619c9b44b36704a",
        "equalized.pgm": "31961fb4028fd2a794649614dc4f8c507b2acb32f8f2869c5c84a5fa17405645",
        "gradient.pgm": "1791618de62a1bf2cc1c6d8fe1e89b4602364aed59640c820d5f65e97574a399",
        "labels.pgm": "81f53d116bec281896a3ab910465071b05fd9f44647420930aca2fae1ee828f8",
        "roc.csv": "bc2797f89e3b2e376ce8db5a69961e976dd3d8653fecdeb3bc3294df84dbb03e",
        "roc_baseline.csv": "94b1be1387ab5e3ce3cb0e402fb456ab6219c51830a3d63bcf6da137791cccdb",
    },
    20.0: {
        "convergence.csv": "5c501cbb46e0c5d7fd599e829841526eeaed165aa121f300adc46a9fe8cae485",
        "enhanced.pgm": "d6d04e8d4b0c1af7a84d4a4a22e7a5345cb5b5dd5b7ac37fa7edd4ed9eaf884c",
        "equalized.pgm": "0687a13e380b8b5f101aaa261a94be0e37ebc64f29854cba51064ad5d1bdfdb2",
        "gradient.pgm": "d08e1ece399bacc93192452a428380a52b9fe970e2cc36dc63719e6db73aa258",
        "labels.pgm": "e1658c11973231b0785d25a628fc0ad237edb5920d4e3b2193a37c35ea7badf4",
        "roc.csv": "4a98f0ca0e77a342357f2573dd5e5e4844c24239e1caaaf8de84fc0b9cc7f1a4",
        "roc_baseline.csv": "9b4f4496b39779fcdf54b684d6cbc70f4133426c7b7ba42e4f47d5df2f32d0cd",
    },
}
_PINNED_BY_RULE = {
    (0.0, "otsu"): {
        "mask.pgm": "0dba8ef4f14240c6d39e2b07643fb3ceb5d093543de9f6012bde2da395774506",
        "overlay.ppm": "3b40708c6d626f221e0a3fa9ed949a5be4a65426943a2d845046cb004b8e8c62",
        "report.csv": "416ca54e5208058a79fd5c4030fb8ae5dcea21b8757440cd94148d0968aba528",
    },
    (0.0, "threshold"): {
        "mask.pgm": "0c3a6b1c0155b430e14f3cab0b1ee027d63ca32731fc6fa55a27d58b6499a3b1",
        "overlay.ppm": "5e82f945d43c589c6fd2a80244208df4c8261c40d442e65f625b4c4b965618e6",
        "report.csv": "c6155449e845db296ba798c1337c25bef6a6072bad2158de42372ce9f8be00ef",
    },
    (20.0, "otsu"): {
        "mask.pgm": "d9114ff20066277c93b2bc26f92e1ced68558f3a163d591d4d1e3919fc979c53",
        "overlay.ppm": "5b02cb1575dc548670cae54510e66a5580c14894b54cf77f8d133b0a93b2f7d5",
        "report.csv": "6badce68f7fd70ab857d4e10ded92dd4442bd3acbcdae84130c62be9a749eda7",
    },
    (20.0, "threshold"): {
        "mask.pgm": "4b826dd738edf24d91d3bfbde74537003ce34420d01bd656b9d8092e5a4dcd3a",
        "overlay.ppm": "8fa0f8386c38389b5de20026f120a359990fade613b5885a6126c8cce8c3fbdb",
        "report.csv": "f83f1ab2e4fc05dd548a9f4c8f7bc7993a604c54c4ab427b8e1d140bf8df53bf",
    },
}


@pytest.mark.parametrize("rule", ["otsu", "threshold"])
@pytest.mark.parametrize("sigma", [0.0, 20.0])
def test_artifacts_are_pinned(tmp_path, sigma, rule):
    """Every dumped artifact matches a recorded sha256, not just a rerun.

    The hashes were taken at commit 5ab9498, before pipeline.segment(),
    the stored ROC rates and the shared 8-bit quantizer existed, under
    numpy 2.4.6 on Python 3.11.  A change that moves any byte of
    any artifact fails here; if that change is deliberate, say why and
    record the new hashes.
    """
    import hashlib

    img, truth = generate_phantom(PhantomSpec(64, 64, 16, 5, sigma, 4))
    res = run_pipeline(img, truth, _fast_config(seed=11, basin_rule=rule))
    written = write_outputs(res, tmp_path, dump=True)
    want = {**_PINNED_COMMON[sigma], **_PINNED_BY_RULE[(sigma, rule)]}
    assert sorted(written) == sorted(want)
    got = {n: hashlib.sha256((tmp_path / n).read_bytes()).hexdigest() for n in written}
    assert got == want


# The data row of report.csv for the default pipeline, with truth, on the
# phantoms of test_watershed.PIPELINE_LABEL_PINS (the sizes the benchmark
# runs).  Taken at commit 1700f44, before SSIM moved to four filtered planes
# and a folded window of its own; that change reorders SSIM's sums, which
# could flip its sixth digit here while the 64x64 artifact pins above hold.
REPORT_ROW_PINS = {
    (256, 32, 10, 20.0): "18.3863,942.867,0.866249,0.775418,79.158,95.9808,59.8695,87.1094",
    (256, 32, 10, 0.0): "14.6003,2254.52,0.921646,0.857631,86.0243,99.2736,58.522,92.2867",
    (128, 16, 4, 20.0): "17.6638,1113.52,0.894132,0.826211,92.7874,88.52,75.4074,90.387",
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
