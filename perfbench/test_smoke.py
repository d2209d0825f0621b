"""Smoke test of the benchmark on 64x64 phantoms with the real pipeline config.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run as bench

WORKLOADS = ("mesh256_noisy", "tiles128_stack", "mesh256_clean_cli")


@pytest.fixture(scope="module")
def declared():
    bench.load()
    return json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_declared_workloads_are_the_ones_that_run(declared):
    assert tuple(w["name"] for w in declared["workloads"]) == WORKLOADS


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_reports_every_layer(name, declared, tmp_path):
    line, record = bench.run(name, 5, 0.0, True, smoke=True, setup_reps=1, out_root=tmp_path)
    assert (line["correct"], line["attempted"], line["failed"]) == (True, 1, 0)
    assert list(line["metrics"]) == [m["name"] for m in declared["per_layer"]]
    m = {k: v["value"] for k, v in line["metrics"].items()}
    assert m["bat.evaluations"] == 20 * 501
    assert m["watershed.markers"] >= 1
    assert 0 < m["watershed.ridge_pixels"] <= m["watershed.heap_pushes"] < 64 * 64
    assert m["watershed.flood_s"] > 0 and m["bat.optimize_s"] > 0
    via_cli = name == "mesh256_clean_cli"
    assert (m["image.read_pgm_s"] > 0) == via_cli
    assert (m["pipeline.write_outputs_s"] > 0) == via_cli
    assert (m["pipeline.bytes_written"] > 0) == via_cli
    names = {s["name"] for s in record["spans"]}
    assert {"pipeline.run", "watershed.segment", "watershed.regional_minima"} <= names
    saved = json.loads((tmp_path / f"{name}-seed5-trace1.json").read_text(encoding="utf-8"))
    assert saved["result"] == line
    assert not list(tmp_path.glob("work-*"))


def test_untraced_run_reports_end_to_end_metrics(declared, tmp_path):
    line, record = bench.run("mesh256_noisy", 5, 0.0, False, smoke=True, setup_reps=1, out_root=tmp_path)
    assert (line["correct"], line["attempted"], line["failed"]) == (True, bench.MIN_SAMPLES, 0)
    assert list(line["metrics"]) == [m["name"] for m in declared["end_to_end"]]
    m = {k: v["value"] for k, v in line["metrics"].items()}
    assert all(v > 0 for v in m.values())
    assert m["ok_frac"] == 1.0 and 0 < m["f_measure"] <= 1
    assert m["latency_tail_s"] == sorted(record["latency_samples_s"])[0]
    assert set(record["output_sha256"]) == {"0", "1", "2"}


def test_inputs_come_from_the_seed(declared, tmp_path):
    import numpy as np
    from workloads import workloads

    wl = workloads(smoke=True)["tiles128_stack"]
    _, a = wl.make_inputs(9, tmp_path)
    _, b = wl.make_inputs(9, tmp_path)
    _, c = wl.make_inputs(10, tmp_path)
    assert all(np.array_equal(x[0], y[0]) for x, y in zip(a, b))
    assert not any(np.array_equal(x[0], y[0]) for x, y in zip(a, c))


def test_output_check_rejects_broken_outputs(declared, tmp_path):
    import dataclasses

    import numpy as np
    from lcseg import watershed as ws
    from lcseg.pipeline import run_pipeline
    from workloads import CheckFailed, check_outputs, workloads

    wl = workloads(smoke=True)["mesh256_noisy"]
    cfg, inputs = wl.make_inputs(3, tmp_path)
    result = run_pipeline(*inputs[0], cfg)
    markers = int(result.labels.max())
    assert markers == ws.regional_minima(ws.h_minima(result.gradient, cfg.h_min))[1]
    check_outputs(wl, inputs[0], result, markers)
    shifted = result.labels + (result.labels > 0).astype(np.int32)
    broken = [
        dataclasses.replace(result, labels=shifted),
        dataclasses.replace(result, labels=result.labels.astype(np.int64)),
        dataclasses.replace(result, mask=result.mask.astype(np.uint8)),
        dataclasses.replace(result, mask=result.mask[1:]),
        dataclasses.replace(result, report=None),
    ]
    for bad in broken:
        with pytest.raises(CheckFailed):
            check_outputs(wl, inputs[0], bad, markers)


def test_fails_without_lcseg_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiles128_stack",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
