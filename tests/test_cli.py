import hashlib

import numpy as np
import pytest

from lcseg import bat
from lcseg.cli import build_parser, main
from lcseg.config import PipelineConfig, load_config
from lcseg.image import read_pgm, separable_filter, write_pgm


def run_cli(*args):
    return main(list(args))


@pytest.fixture()
def phantom_dir(tmp_path):
    out = tmp_path / "ph"
    code = run_cli(
        "synth", "--seed", "7", "--size", "64", "--period", "16",
        "--beam-width", "5", "--noise", "0", "--out", str(out),
    )
    assert code == 0
    return out


FAST_CONFIG = """\
[bat]
population = 8
iterations = 30
"""


@pytest.fixture()
def fast_config(tmp_path):
    path = tmp_path / "fast.ini"
    path.write_text(FAST_CONFIG)
    return path


def test_synth_writes_reproducible_phantom(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        code = run_cli(
            "synth", "--seed", "7", "--size", "64", "--noise", "20",
            "--out", str(out),
        )
        assert code == 0
    assert (a / "image.pgm").read_bytes() == (b / "image.pgm").read_bytes()
    assert (a / "truth.pgm").read_bytes() == (b / "truth.pgm").read_bytes()
    truth = read_pgm(a / "truth.pgm")
    assert set(np.unique(truth).tolist()) <= {0, 255}


@pytest.mark.parametrize(
    "noise, message",
    [("nan", "noise_sigma must be non-negative"), ("inf", "noise_sigma must be finite")],
    ids=["nan", "inf"],
)
def test_synth_non_finite_noise_exits_2(noise, message, tmp_path, capsys):
    out = tmp_path / "ph"
    code = run_cli("synth", "--size", "16", "--noise", noise, "--out", str(out))
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_perfect_prediction(capsys, phantom_dir):
    code = run_cli(
        "evaluate",
        "--pred", str(phantom_dir / "truth.pgm"),
        "--truth", str(phantom_dir / "truth.pgm"),
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Accuracy" in out
    accuracy_line = [l for l in out.splitlines() if l.startswith("Accuracy")][0]
    assert accuracy_line.split()[-1] == "100"


def test_main_calls_share_one_parser_and_no_state(tmp_path):
    # The first call's --seed must not carry over into the second's.  Two
    # bats over a noise image converge along a seed-dependent curve.
    assert build_parser() is build_parser()
    image = np.random.default_rng(0).integers(0, 256, size=(32, 32), dtype=np.uint8)
    write_pgm(image, tmp_path / "noise.pgm")
    config = tmp_path / "two_bats.ini"
    config.write_text("[bat]\npopulation = 2\niterations = 20\n")
    params = load_config(config).bat
    want = {}
    for name, seed in (("seeded", 3), ("unseeded", params.seed)):
        _, state = bat.optimize_threshold(image, PipelineConfig(bat=params).with_seed(seed).bat)
        want[name] = bat.convergence_csv(state).encode("utf-8")
    assert want["seeded"] != want["unseeded"]
    for name, seed_args in (("seeded", ["--seed", "3"]), ("unseeded", [])):
        code = run_cli(
            "optimize", "--input", str(tmp_path / "noise.pgm"), "--config", str(config),
            *seed_args, "--out-csv", str(tmp_path / f"{name}.csv"),
        )
        assert code == 0
        assert (tmp_path / f"{name}.csv").read_bytes() == want[name]


def test_unknown_flag_exits_1(capsys):
    code = run_cli("run", "--bogus")
    assert code == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_unknown_command_exits_1(capsys):
    code = run_cli("frobnicate")
    assert code == 1


def test_missing_file_exits_2(capsys, tmp_path):
    code = run_cli("equalize", "--input", str(tmp_path / "nope.pgm"),
                   "--out", str(tmp_path / "o.pgm"))
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_segment_fixed_threshold_out_of_range_exits_2(phantom_dir, capsys):
    code = run_cli(
        "segment", "--input", str(phantom_dir / "image.pgm"), "--fixed-threshold", "999",
    )
    assert code == 2
    assert "threshold must be in 0..255, got 999" in capsys.readouterr().err


def test_run_writes_manifest(tmp_path, phantom_dir, fast_config, capsys):
    out = tmp_path / "out"
    code = run_cli(
        "run",
        "--input", str(phantom_dir / "image.pgm"),
        "--truth", str(phantom_dir / "truth.pgm"),
        "--config", str(fast_config),
        "--out", str(out),
    )
    assert code == 0
    for name in (
        "enhanced.pgm", "equalized.pgm", "labels.pgm", "mask.pgm",
        "overlay.ppm", "report.csv", "convergence.csv", "roc.csv",
    ):
        assert (out / name).exists(), name
    stdout = capsys.readouterr().out
    assert "threshold" in stdout
    assert "Accuracy" in stdout


def test_run_degenerate_input_exits_3(tmp_path, fast_config, capsys):
    img_path = tmp_path / "flat.pgm"
    write_pgm(np.full((64, 64), 120, dtype=np.uint8), img_path)
    code = run_cli(
        "run", "--input", str(img_path), "--config", str(fast_config),
        "--out", str(tmp_path / "out"),
    )
    assert code == 3
    assert "degenerate" in capsys.readouterr().err


def test_run_negative_seed_exits_2_before_running(tmp_path, phantom_dir, capsys):
    out = tmp_path / "out"
    code = run_cli(
        "run", "--input", str(phantom_dir / "image.pgm"), "--seed", "-1", "--out", str(out),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "seed" in err and "-1" in err
    assert not out.exists()


def test_run_empty_out_exits_2_before_running(tmp_path, phantom_dir, monkeypatch, capsys):
    # An empty --out once fell back to the config's output_dir.
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    code = run_cli("run", "--input", str(phantom_dir / "image.pgm"), "--out", "")
    assert code == 2
    assert "--out must not be empty" in capsys.readouterr().err
    assert not list(work.iterdir())


# Each subcommand's required options, with every file it reads in the
# phantom directory and every file it writes in the working directory.
_REQUIRED = {
    "synth": ["--size", "32", "--out", "synth"],
    "decompose": ["--input", "{ph}/image.pgm", "--out", "dec.pgm"],
    "optimize": ["--input", "{ph}/image.pgm"],
    "equalize": ["--input", "{ph}/image.pgm", "--out", "eq.pgm"],
    "segment": ["--input", "{ph}/image.pgm"],
    "evaluate": ["--pred", "{ph}/truth.pgm", "--truth", "{ph}/truth.pgm"],
    "roc": [
        "--score", "{ph}/image.pgm", "--truth", "{ph}/truth.pgm", "--baseline", "{ph}/image.pgm",
    ],
    "run": ["--input", "{ph}/image.pgm", "--config", "{fast}", "--out", "run"],
}

_PATH_OPTIONS = [
    ("synth", "--out"),
    ("decompose", "--input"),
    ("decompose", "--out"),
    ("decompose", "--dump-planes"),
    ("optimize", "--input"),
    ("optimize", "--config"),
    ("optimize", "--out-csv"),
    ("equalize", "--input"),
    ("equalize", "--out"),
    ("segment", "--input"),
    ("segment", "--out-labels"),
    ("segment", "--out-mask"),
    ("segment", "--out-overlay"),
    ("evaluate", "--pred"),
    ("evaluate", "--truth"),
    ("evaluate", "--pred-img"),
    ("evaluate", "--truth-img"),
    ("evaluate", "--out-csv"),
    ("roc", "--score"),
    ("roc", "--truth"),
    ("roc", "--baseline"),
    ("roc", "--out-csv"),
    ("roc", "--out-baseline-csv"),
    ("run", "--input"),
    ("run", "--truth"),
    ("run", "--config"),
    ("run", "--out"),
]


def test_path_options_are_every_string_option_but_kept():
    """``_PATH_OPTIONS`` names every option that takes a path; only
    ``--kept`` takes another kind of string."""
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    found = {
        (name, action.option_strings[0])
        for name, sub in subparsers.choices.items()
        for action in sub._actions
        if action.option_strings and action.nargs is None and action.type is None
    }
    assert found - set(_PATH_OPTIONS) == {("decompose", "--kept")}
    assert set(_PATH_OPTIONS) <= found


@pytest.mark.parametrize("command, option", _PATH_OPTIONS)
def test_an_empty_path_option_exits_2_before_running(
    command, option, tmp_path, phantom_dir, fast_config, monkeypatch, capsys
):
    """An empty path is neither the working directory nor a skipped
    output: the command exits 2 naming the option and writes nothing."""
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    argv = [a.format(ph=phantom_dir, fast=fast_config) for a in _REQUIRED[command]]
    if option in argv:
        argv[argv.index(option) + 1] = ""
    else:
        argv += [option, ""]
    assert run_cli(command, *argv) == 2
    assert f"{option} must not be empty" in capsys.readouterr().err
    assert not list(work.iterdir())


def test_run_out_overrides_the_config_output_dir(tmp_path, phantom_dir):
    config = tmp_path / "dir.ini"
    config.write_text(FAST_CONFIG + "\n[pipeline]\noutput_dir = " + str(tmp_path / "from-config") + "\n")
    out = tmp_path / "from-flag"
    code = run_cli(
        "run", "--input", str(phantom_dir / "image.pgm"), "--config", str(config), "--out", str(out),
    )
    assert code == 0
    assert (out / "mask.pgm").exists() and not (tmp_path / "from-config").exists()


def test_run_frame_below_ssim_window_exits_2(tmp_path, capsys):
    # 9x9 passes 2 wavelet levels but not the 11x11 SSIM window that --truth
    # needs; run_pipeline raises that as a PipelineError tagged [input].
    ph = tmp_path / "tiny"
    assert run_cli("synth", "--size", "9", "--out", str(ph)) == 0
    config = tmp_path / "tiny.ini"
    config.write_text("[wavelet]\nlevels = 2\nkept_scales = 2\n")
    out = tmp_path / "out"
    code = run_cli(
        "run", "--input", str(ph / "image.pgm"), "--truth", str(ph / "truth.pgm"),
        "--config", str(config), "--out", str(out),
    )
    assert code == 2
    assert "[input]" in capsys.readouterr().err


def test_run_determinism_byte_identical(tmp_path, phantom_dir, fast_config):
    outs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        code = run_cli(
            "run",
            "--input", str(phantom_dir / "image.pgm"),
            "--truth", str(phantom_dir / "truth.pgm"),
            "--config", str(fast_config),
            "--seed", "5",
            "--out", str(out),
        )
        assert code == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_stage_isolation_matches_run(tmp_path, phantom_dir, fast_config, capsys):
    """Chaining the stage subcommands reproduces run's artifacts."""
    out = tmp_path / "run_out"
    code = run_cli(
        "run",
        "--input", str(phantom_dir / "image.pgm"),
        "--truth", str(phantom_dir / "truth.pgm"),
        "--config", str(fast_config),
        "--out", str(out),
    )
    assert code in (0, 3)

    enhanced = tmp_path / "enhanced.pgm"
    assert run_cli(
        "decompose", "--input", str(phantom_dir / "image.pgm"),
        "--levels", "3", "--kept", "2,3", "--out", str(enhanced),
    ) == 0
    assert enhanced.read_bytes() == (out / "enhanced.pgm").read_bytes()

    conv = tmp_path / "convergence.csv"
    capsys.readouterr()
    assert run_cli(
        "optimize", "--input", str(enhanced), "--config", str(fast_config),
        "--out-csv", str(conv),
    ) == 0
    assert conv.read_bytes() == (out / "convergence.csv").read_bytes()
    threshold = capsys.readouterr().out.splitlines()[0].removeprefix("threshold ")

    equalized = tmp_path / "equalized.pgm"
    assert run_cli(
        "equalize", "--input", str(enhanced), "--out", str(equalized),
    ) == 0
    assert equalized.read_bytes() == (out / "equalized.pgm").read_bytes()

    # run segments the enhanced frame and splits its basins at the bat's
    # threshold.
    mask = tmp_path / "mask.pgm"
    labels = tmp_path / "labels.pgm"
    assert run_cli(
        "segment", "--input", str(enhanced), "--h-min", "5", "--fixed-threshold", threshold,
        "--out-labels", str(labels), "--out-mask", str(mask),
    ) in (0, 3)
    assert mask.read_bytes() == (out / "mask.pgm").read_bytes()
    assert labels.read_bytes() == (out / "labels.pgm").read_bytes()

    # --fixed-threshold classifies the same basins by mean > 128; its
    # mask and overlay are pinned to sha256s taken when the watershed cut
    # replaced the flood.
    overlay = tmp_path / "overlay.ppm"
    assert run_cli(
        "segment", "--input", str(enhanced), "--h-min", "5", "--fixed-threshold", "128",
        "--out-labels", str(labels), "--out-mask", str(mask), "--out-overlay", str(overlay),
    ) in (0, 3)
    assert labels.read_bytes() == (out / "labels.pgm").read_bytes()
    assert _sha256(mask) == "e0df4ce9571d37c10295040f178f03fa02fcae13cc6e83b935ffc862662748f9"
    assert _sha256(overlay) == "240f0e5685b8c7287a3f1a260c652d39667733e7b061dcd2c134296e964a66fb"

    roc = tmp_path / "roc.csv"
    roc_base = tmp_path / "roc_baseline.csv"
    assert run_cli(
        "roc", "--score", str(enhanced), "--truth", str(phantom_dir / "truth.pgm"),
        "--baseline", str(phantom_dir / "image.pgm"),
        "--out-csv", str(roc), "--out-baseline-csv", str(roc_base),
    ) == 0
    assert roc.read_bytes() == (out / "roc.csv").read_bytes()
    assert roc_base.read_bytes() == (out / "roc_baseline.csv").read_bytes()


def test_run_with_roi_crops_outputs(tmp_path, phantom_dir):
    cfg = tmp_path / "roi.ini"
    cfg.write_text(FAST_CONFIG + "\n[roi]\nx0 = 8\ny0 = 4\nw = 32\nh = 24\n")
    out = tmp_path / "out"
    code = run_cli(
        "run",
        "--input", str(phantom_dir / "image.pgm"),
        "--truth", str(phantom_dir / "truth.pgm"),
        "--config", str(cfg),
        "--out", str(out),
    )
    assert code in (0, 3)
    assert read_pgm(out / "mask.pgm").shape == (24, 32)
    assert read_pgm(out / "enhanced.pgm").shape == (64, 64)  # pre-crop artifact


def test_run_without_truth_omits_metrics(tmp_path, phantom_dir, fast_config):
    out = tmp_path / "out"
    code = run_cli(
        "run", "--input", str(phantom_dir / "image.pgm"),
        "--config", str(fast_config), "--out", str(out),
    )
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert "mask.pgm" in names and "convergence.csv" in names
    assert "report.csv" not in names
    assert "roc.csv" not in names


def test_decompose_dump_planes(tmp_path, phantom_dir):
    planes = tmp_path / "planes"
    assert run_cli(
        "decompose", "--input", str(phantom_dir / "image.pgm"),
        "--levels", "2", "--out", str(tmp_path / "e.pgm"),
        "--dump-planes", str(planes),
    ) == 0
    assert (planes / "detail_1.pgm").exists()
    assert (planes / "detail_2.pgm").exists()
    assert (planes / "smooth.pgm").exists()


@pytest.mark.parametrize("dump, filters", [(False, 1), (True, 3)], ids=["plain", "dump-planes"])
def test_decompose_filters_each_level_once(dump, filters, monkeypatch, tmp_path, phantom_dir):
    """Scales 2 and 3 of 3 read c_1 alone; the planes need all 3 levels,
    and the enhanced image comes from that same pyramid, byte for byte."""
    import lcseg.wavelet

    calls = []

    def counted(plane, taps, spacing=1):
        calls.append(spacing)
        return separable_filter(plane, taps, spacing)

    monkeypatch.setattr(lcseg.wavelet, "separable_filter", counted)
    out = tmp_path / "e.pgm"
    args = ["--input", str(phantom_dir / "image.pgm"), "--levels", "3", "--kept", "2,3"]
    planes = tmp_path / "planes"
    dump_args = ["--dump-planes", str(planes)] if dump else []
    assert run_cli("decompose", *args, "--out", str(out), *dump_args) == 0
    assert len(calls) == filters
    assert run_cli("decompose", *args, "--out", str(tmp_path / "plain.pgm")) == 0
    assert out.read_bytes() == (tmp_path / "plain.pgm").read_bytes()
    if dump:
        names = ["detail_1.pgm", "detail_2.pgm", "detail_3.pgm", "smooth.pgm"]
        assert sorted(p.name for p in planes.iterdir()) == names


def test_decompose_dump_planes_rejects_bad_kept_scales_before_the_transform(
    monkeypatch, tmp_path, phantom_dir, capsys
):
    import lcseg.cli

    calls = []
    monkeypatch.setattr(lcseg.cli, "iuwt_decompose", lambda *a: calls.append(a))
    code = run_cli(
        "decompose", "--input", str(phantom_dir / "image.pgm"), "--levels", "3",
        "--kept", "4", "--out", str(tmp_path / "e.pgm"), "--dump-planes", str(tmp_path / "p"),
    )
    assert code == 2
    assert "kept_scales (4,) outside the wavelet levels 1..3" in capsys.readouterr().err
    assert calls == [] and not (tmp_path / "e.pgm").exists() and not (tmp_path / "p").exists()


@pytest.mark.parametrize("h_min", ["-1", "nan"])
def test_segment_rejects_bad_h_min_before_the_gradient(monkeypatch, phantom_dir, capsys, h_min):
    from lcseg import watershed

    calls = []
    monkeypatch.setattr(watershed, "gradient_magnitude", lambda *a: calls.append(a))
    code = run_cli("segment", "--input", str(phantom_dir / "image.pgm"), "--h-min", h_min)
    assert code == 2
    assert "h_min must be non-negative" in capsys.readouterr().err
    assert calls == []


def test_decompose_rejects_bad_kept_scales_before_the_transform(
    monkeypatch, tmp_path, phantom_dir, capsys
):
    import lcseg.wavelet

    calls = []
    monkeypatch.setattr(lcseg.wavelet, "iuwt_decompose", lambda *a: calls.append(a))
    out = tmp_path / "e.pgm"
    code = run_cli(
        "decompose", "--input", str(phantom_dir / "image.pgm"),
        "--levels", "3", "--kept", "5", "--out", str(out),
    )
    assert code == 2
    assert "kept_scales (5,) outside the wavelet levels 1..3" in capsys.readouterr().err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("kept", ["2 3", "2,,3", ""], ids=["blank-inside", "empty-token", "empty"])
def test_decompose_rejects_malformed_kept_scales(kept, monkeypatch, tmp_path, phantom_dir, capsys):
    # An empty --kept is a value like any other, not "keep every scale".
    import lcseg.wavelet

    calls = []
    monkeypatch.setattr(lcseg.wavelet, "iuwt_decompose", lambda *a: calls.append(a))
    out = tmp_path / "e.pgm"
    code = run_cli(
        "decompose", "--input", str(phantom_dir / "image.pgm"),
        "--levels", "3", "--kept", kept, "--out", str(out),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "invalid literal for int()" in err
    assert "bad value for --kept: " in err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("levels", ["0", "-2"])
def test_decompose_rejects_levels_below_one_before_the_transform(
    levels, monkeypatch, tmp_path, phantom_dir, capsys
):
    import lcseg.wavelet

    calls = []
    monkeypatch.setattr(lcseg.wavelet, "iuwt_decompose", lambda *a: calls.append(a))
    out = tmp_path / "e.pgm"
    code = run_cli(
        "decompose", "--input", str(phantom_dir / "image.pgm"), "--levels", levels,
        "--out", str(out),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "wavelet levels must be at least 1" in err
    assert "kept_scales" not in err
    assert calls == [] and not out.exists()


def test_decompose_rejects_image_too_small_for_levels(tmp_path, capsys):
    small = tmp_path / "small.pgm"
    write_pgm(np.zeros((12, 12), dtype=np.uint8), small)
    out = tmp_path / "e.pgm"
    code = run_cli("decompose", "--input", str(small), "--levels", "3", "--out", str(out))
    assert code == 2
    assert "image 12x12 too small for 3 levels" in capsys.readouterr().err
    assert not out.exists()


def test_segment_standalone(tmp_path, phantom_dir):
    mask = tmp_path / "m.pgm"
    overlay = tmp_path / "o.ppm"
    code = run_cli(
        "segment", "--input", str(phantom_dir / "image.pgm"),
        "--out-mask", str(mask), "--out-overlay", str(overlay),
    )
    assert code == 0
    assert mask.exists() and overlay.exists()
    # The noise-free phantom's pores are 50 and its beams 200: Otsu's t is
    # 50, and the split at t gives the truth back.
    assert np.array_equal(read_pgm(mask), read_pgm(phantom_dir / "truth.pgm"))


@pytest.mark.parametrize("fixed, want", [([], "50"), (["--fixed-threshold", "120"], "120")])
def test_segment_prints_its_threshold(phantom_dir, capsys, fixed, want):
    capsys.readouterr()
    code = run_cli("segment", "--input", str(phantom_dir / "image.pgm"), *fixed)
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"threshold {want}"
    assert lines[1].startswith("basins ")


def test_segment_h_min_defaults_to_the_config_default(tmp_path):
    assert run_cli(
        "synth", "--seed", "3", "--size", "48", "--noise", "20", "--out", str(tmp_path),
    ) == 0
    image = str(tmp_path / "image.pgm")
    outputs = {}
    for tag, extra in (
        ("default", []),
        ("config", ["--h-min", str(PipelineConfig().h_min)]),
        ("zero", ["--h-min", "0"]),
    ):
        mask, labels = tmp_path / f"{tag}_mask.pgm", tmp_path / f"{tag}_labels.pgm"
        assert run_cli(
            "segment", "--input", image, *extra,
            "--out-mask", str(mask), "--out-labels", str(labels),
        ) in (0, 3)
        outputs[tag] = (mask.read_bytes(), labels.read_bytes())
    assert outputs["default"] == outputs["config"]
    assert outputs["default"][1] != outputs["zero"][1]  # the setting matters on this input


def test_roc_prints_aucs(tmp_path, phantom_dir, capsys):
    assert run_cli(
        "roc", "--score", str(phantom_dir / "image.pgm"),
        "--truth", str(phantom_dir / "truth.pgm"),
        "--baseline", str(phantom_dir / "image.pgm"),
        "--out-csv", str(tmp_path / "r.csv"),
        "--out-baseline-csv", str(tmp_path / "rb.csv"),
    ) == 0
    out = capsys.readouterr().out
    assert "auc 1" in out  # noise-free phantom separates perfectly


def test_roc_blames_a_mis_sized_baseline(tmp_path, phantom_dir, capsys):
    baseline = tmp_path / "small.pgm"
    write_pgm(read_pgm(phantom_dir / "image.pgm")[:32, :32], baseline)
    out_csv, out_baseline_csv = tmp_path / "r.csv", tmp_path / "rb.csv"
    code = run_cli(
        "roc", "--score", str(phantom_dir / "image.pgm"),
        "--truth", str(phantom_dir / "truth.pgm"),
        "--baseline", str(baseline),
        "--out-csv", str(out_csv), "--out-baseline-csv", str(out_baseline_csv),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "baseline vs truth (32, 32) vs (64, 64)" in err
    assert not out_csv.exists() and not out_baseline_csv.exists()
