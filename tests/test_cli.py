import hashlib

import numpy as np
import pytest

from lcseg.cli import main
from lcseg.config import PipelineConfig
from lcseg.image import read_pgm, write_pgm


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
    assert "fixed_threshold must be in 0..255, got 999" in capsys.readouterr().err


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


def test_stage_isolation_matches_run(tmp_path, phantom_dir, fast_config):
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
    assert run_cli(
        "optimize", "--input", str(enhanced), "--config", str(fast_config),
        "--out-csv", str(conv),
    ) == 0
    assert conv.read_bytes() == (out / "convergence.csv").read_bytes()

    equalized = tmp_path / "equalized.pgm"
    assert run_cli(
        "equalize", "--input", str(enhanced), "--out", str(equalized),
    ) == 0
    assert equalized.read_bytes() == (out / "equalized.pgm").read_bytes()

    mask = tmp_path / "mask.pgm"
    labels = tmp_path / "labels.pgm"
    assert run_cli(
        "segment", "--input", str(equalized), "--h-min", "5",
        "--out-labels", str(labels), "--out-mask", str(mask),
    ) in (0, 3)
    assert mask.read_bytes() == (out / "mask.pgm").read_bytes()
    assert labels.read_bytes() == (out / "labels.pgm").read_bytes()

    # --fixed-threshold classifies the same basins by mean >= 128; its
    # mask and overlay are pinned to sha256s taken at commit 5ab9498.
    overlay = tmp_path / "overlay.ppm"
    assert run_cli(
        "segment", "--input", str(equalized), "--h-min", "5", "--fixed-threshold", "128",
        "--out-labels", str(labels), "--out-mask", str(mask), "--out-overlay", str(overlay),
    ) in (0, 3)
    assert labels.read_bytes() == (out / "labels.pgm").read_bytes()
    assert _sha256(mask) == "f4992c440a09f1b1318a065a6c1332dc07774b4c3da789271071a955595ef2fd"
    assert _sha256(overlay) == "40e325593e3934632df167751e9b2533db40344894531c203ce63e9260d48a65"

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


def test_segment_standalone(tmp_path, phantom_dir):
    mask = tmp_path / "m.pgm"
    overlay = tmp_path / "o.ppm"
    code = run_cli(
        "segment", "--input", str(phantom_dir / "image.pgm"),
        "--out-mask", str(mask), "--out-overlay", str(overlay),
    )
    assert code == 0
    assert mask.exists() and overlay.exists()


def test_segment_h_min_defaults_to_the_config_default(tmp_path):
    assert run_cli(
        "synth", "--seed", "3", "--size", "48", "--noise", "20", "--out", str(tmp_path),
    ) == 0
    image = str(tmp_path / "image.pgm")
    masks = {}
    for tag, extra in (
        ("default", []),
        ("config", ["--h-min", str(PipelineConfig().h_min)]),
        ("zero", ["--h-min", "0"]),
    ):
        path = tmp_path / f"{tag}.pgm"
        assert run_cli("segment", "--input", image, *extra, "--out-mask", str(path)) in (0, 3)
        masks[tag] = path.read_bytes()
    assert masks["default"] == masks["config"]
    assert masks["default"] != masks["zero"]  # the setting matters on this input


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
