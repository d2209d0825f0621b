import pytest

from lcseg.config import PipelineConfig, RoiRect, parse_config, serialize_config

SAMPLE = """\
# experiment settings
[wavelet]
levels = 4
kept_scales = 2,3,4

[bat]
population = 12
iterations = 80
alpha = 0.85

[roi]
x0 = 8
y0 = 16
w = 32
h = 24

[watershed]
h_min = 3.5

[pipeline]
seed = 77
output_dir = results
"""


def test_parse_sample():
    cfg = parse_config(SAMPLE)
    assert cfg.wavelet_levels == 4
    assert cfg.kept_scales == (2, 3, 4)
    assert cfg.bat.population == 12
    assert cfg.bat.iterations == 80
    assert cfg.bat.alpha == 0.85
    assert cfg.bat.f_max == 2.0  # default preserved
    assert cfg.bat.seed == 77  # master seed feeds the optimizer
    assert cfg.roi == RoiRect(8, 16, 32, 24)
    assert cfg.h_min == 3.5
    assert cfg.seed == 77
    assert cfg.output_dir == "results"


def test_defaults_from_empty_config():
    cfg = parse_config("")
    assert cfg == PipelineConfig()
    assert cfg.wavelet_levels == 3
    assert cfg.kept_scales == (2, 3)
    assert cfg.bat.population == 20
    assert cfg.bat.iterations == 500
    assert cfg.h_min == 5.0
    assert cfg.roi is None


def test_unknown_section_rejected():
    with pytest.raises(ValueError, match="unknown config section"):
        parse_config("[warp]\nspeed = 9\n")


def test_removed_baseline_section_rejected():
    with pytest.raises(ValueError, match=r"unknown config section \[baseline\]"):
        parse_config("[baseline]\nfixed_threshold = 100\n")


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config("[wavelet]\nlevels = 3\nextra = 1\n")


def test_partial_roi_rejected():
    with pytest.raises(ValueError, match="missing"):
        parse_config("[roi]\nx0 = 1\ny0 = 2\n")


def test_bad_value_rejected():
    with pytest.raises(ValueError):
        parse_config("[wavelet]\nlevels = many\n")
    with pytest.raises(ValueError):
        parse_config("[bat]\nalpha = 1.5\n")
    with pytest.raises(ValueError):
        parse_config("[watershed]\nbasin_rule = magic\n")


def test_round_trip_is_idempotent():
    cfg = parse_config(SAMPLE)
    text1 = serialize_config(cfg)
    cfg2 = parse_config(text1)
    assert cfg2 == cfg
    text2 = serialize_config(cfg2)
    assert text2 == text1


def test_round_trip_without_roi():
    cfg = parse_config("[pipeline]\nseed = 5\n")
    text = serialize_config(cfg)
    assert "[roi]" not in text
    assert parse_config(text) == cfg


def test_with_seed_updates_bat_seed():
    cfg = PipelineConfig().with_seed(99)
    assert cfg.seed == 99
    assert cfg.bat.seed == 99


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(kept_scales=(4,), wavelet_levels=3)
    with pytest.raises(ValueError):
        PipelineConfig(h_min=-1.0)
    with pytest.raises(ValueError):
        RoiRect(-1, 0, 4, 4)
