import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcseg.bat import BatParams
from lcseg.config import (
    PipelineConfig,
    RoiRect,
    load_config,
    parse_config,
    serialize_config,
)

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
    assert cfg.bat.seed == 77  # [pipeline] seed is the optimizer's seed
    assert cfg.roi == RoiRect(8, 16, 32, 24)
    assert cfg.h_min == 3.5
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


@pytest.mark.parametrize(
    "text",
    [
        "[watershed]\nh_min = nan\n",  # h-minima reconstruction never converged
        "[bat]\nf_min = nan\n",
        "[bat]\nf_max = nan\n",
        "[bat]\nalpha = nan\n",
        "[bat]\ngamma = nan\n",
        "[bat]\nloudness = nan\n",
        "[bat]\npulse_rate = nan\n",
    ],
)
def test_nan_setting_rejected(text):
    with pytest.raises(ValueError):
        parse_config(text)


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


# The canonical text, pinned byte for byte: the CLI benchmark workload
# writes it as its config file, and a run manifest will embed it.
DEFAULT_TEXT = """\
[wavelet]
levels = 3
kept_scales = 2,3

[bat]
population = 20
iterations = 500
f_min = 0
f_max = 2
alpha = 0.9
gamma = 0.9
loudness = 1
pulse_rate = 0.5

[watershed]
h_min = 5
basin_rule = otsu

[pipeline]
seed = 0
output_dir = out
"""

SAMPLE_TEXT = """\
[wavelet]
levels = 4
kept_scales = 2,3,4

[bat]
population = 12
iterations = 80
f_min = 0
f_max = 2
alpha = 0.85
gamma = 0.9
loudness = 1
pulse_rate = 0.5

[roi]
x0 = 8
y0 = 16
w = 32
h = 24

[watershed]
h_min = 3.5
basin_rule = otsu

[pipeline]
seed = 77
output_dir = results
"""


def test_canonical_text_is_pinned():
    assert serialize_config(PipelineConfig()) == DEFAULT_TEXT
    assert serialize_config(parse_config(SAMPLE)) == SAMPLE_TEXT


def _floats(lo, hi=1e6, **kwargs):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kwargs)


@st.composite
def configs(draw):
    levels = draw(st.integers(1, 6))
    f_min = draw(_floats(-1e6))
    bat = BatParams(
        population=draw(st.integers(2, 1000)),
        iterations=draw(st.integers(1, 100_000)),
        f_min=f_min,
        f_max=draw(_floats(f_min)),
        alpha=draw(_floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        gamma=draw(_floats(0.0, exclude_min=True)),
        a0=draw(_floats(0.0, exclude_min=True)),
        r0=draw(_floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    side = st.integers(1, 4096)
    corner = st.integers(0, 4096)
    return PipelineConfig(
        wavelet_levels=levels,
        kept_scales=tuple(draw(st.lists(st.integers(1, levels), min_size=1, max_size=6))),
        bat=bat,
        roi=draw(st.none() | st.builds(RoiRect, corner, corner, side, side)),
        h_min=draw(_floats(0.0)),
        basin_rule=draw(st.sampled_from(("otsu", "threshold"))),
    )


@settings(max_examples=200, deadline=None)
@given(configs())
def test_every_valid_config_round_trips(cfg):
    assert parse_config(serialize_config(cfg)) == cfg


def test_with_seed_survives_serialization():
    text = serialize_config(PipelineConfig().with_seed(5))
    assert "\nseed = 5\n" in text
    assert parse_config(text).bat.seed == 5


def test_negative_seed_rejected_at_parse(tmp_path):
    text = "[pipeline]\nseed = -1\n"
    with pytest.raises(ValueError, match="seed"):
        parse_config(text)
    path = tmp_path / "neg.ini"
    path.write_text(text)
    with pytest.raises(ValueError, match="seed"):
        load_config(path)
    with pytest.raises(ValueError, match="seed"):
        PipelineConfig().with_seed(-1)


@pytest.mark.parametrize("seed", [1.5, "3", True, 2.0])
def test_non_integer_seed_rejected(seed):
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        PipelineConfig().with_seed(seed)


@settings(max_examples=200, deadline=None)
@given(st.integers() | st.floats() | st.booleans() | st.text(max_size=4))
def test_every_accepted_seed_round_trips(seed):
    try:
        cfg = PipelineConfig().with_seed(seed)
    except ValueError:
        return
    assert parse_config(serialize_config(cfg)) == cfg


def test_with_seed_updates_bat_seed():
    cfg = PipelineConfig().with_seed(99)
    assert cfg.bat.seed == 99


def test_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(kept_scales=(4,), wavelet_levels=3)
    with pytest.raises(ValueError):
        PipelineConfig(h_min=-1.0)
    with pytest.raises(ValueError):
        RoiRect(-1, 0, 4, 4)
