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
    return replace(cfg, bat=BatParams(seed=seed, **FAST_BAT), seed=seed)


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


def test_pipeline_roi_truth_shape_mismatch():
    img, truth = generate_phantom(PhantomSpec(96, 96, 16, 5, 0.0, 2))
    cfg = _fast_config(roi=RoiRect(8, 8, 48, 48))
    with pytest.raises(PipelineError, match=r"\[crop\]"):
        run_pipeline(img, truth[:20, :20], cfg)


def test_pipeline_stage_error_is_tagged():
    img = np.zeros((8, 8), dtype=np.uint8)  # too small for 3 levels
    with pytest.raises(PipelineError, match=r"\[wavelet\]"):
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
