"""lcseg benchmark: one workload, one seed, one closed-loop client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mesh256_noisy --seed 1 --seconds 30 --trace 0

``--trace 0`` times every image untraced and prints the end-to-end
metrics.  ``--trace 1`` runs each image untraced and then traced, and
prints the per-layer metrics.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The
full record (latency samples, output hashes and, when traced, every
span) goes to ``.perfbench/<workload>-seed<seed>-trace<t>.json`` in the
checkout.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# One thread, no pool: the benchmark host is a shared 2-core machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Set-up repetitions whose median is setup_s, and the fewest images an
# untraced run measures, so that latency_tail_s always has ten samples
# beyond it.
SETUP_REPS = 3
MIN_SAMPLES = 11

# Spans that contain other stages; every other span directly below one
# of them is a stage, and pipeline.glue_s is what the stages leave out.
CONTAINERS = ("pipeline.run", "cli.run")


def load() -> float:
    """Import lcseg from this checkout's sources; returns the seconds taken."""
    start = time.perf_counter()
    src = ROOT / "src"
    for path in (str(HERE), str(src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import lcseg
    import lcseg.cli  # noqa: F401  (loads every lcseg module before patching)

    if Path(lcseg.__file__).resolve().parent != src / "lcseg":
        raise ImportError(f"lcseg came from {lcseg.__file__}, not from {src}")
    return time.perf_counter() - start


def _tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with ten samples beyond it, and that percentile."""
    ordered = sorted(samples)
    idx = max(0, len(ordered) - 11)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def _layer_values(rec, img_id: int, untraced_s: float, speed: float) -> dict:
    """Per-layer metrics of one traced image, from its spans and kept calls.

    Times are multiplied by ``speed``, the image's host-speed factor.
    """
    from lcseg.bat import between_class_variance
    from lcseg.histeq import histogram

    own = rec.self_times(img_id)
    total: dict[str, float] = {}
    call: dict[str, tuple] = {}
    stages = 0.0
    root = None
    for i in own:
        s = rec.spans[i]
        total[s.name] = total.get(s.name, 0.0) + s.duration
        if s.call is not None:
            call[s.name], s.call = s.call, None
        if s.parent < 0:
            root = s
        elif s.name not in CONTAINERS and rec.spans[s.parent].name in CONTAINERS:
            stages += s.duration

    # Counts below are computed from public arguments and returns, not
    # counted inside lcseg.
    marker_pixels, markers = call["watershed.regional_minima"]
    (labels, *_), _, _ = call["watershed.labels_to_mask"]
    pixels = labels.size
    ridge = int((labels == 0).sum())

    (enhanced, params), _, (threshold, state) = call["bat.optimize"]
    evaluations = params.population * (params.iterations + 1)
    # Each acceptance multiplies a bat's loudness by alpha.
    accepted = sum(round(math.log(a / params.a0) / math.log(params.alpha)) for a in state.loudness)
    iters_to_best = next(
        t for t, v in enumerate(state.history, start=1) if v >= state.best_fitness
    )
    sigma = between_class_variance(histogram(enhanced))
    best = float(sigma.max())
    otsu_gap = (best - float(sigma[threshold])) / best if best > 0 else 0.0

    _, _, pyramid = call["wavelet.iuwt"]
    _, _, enhanced_out = call["wavelet.enhance"]
    bytes_computed = (
        pyramid.smooth.nbytes + sum(d.nbytes for d in pyramid.details) + enhanced_out.nbytes
    )

    bytes_written = 0
    if "pipeline.write_outputs" in call:
        (_, out_dir, *_), _, names = call["pipeline.write_outputs"]
        bytes_written = sum((Path(out_dir) / n).stat().st_size for n in names)

    optimize_s = total.get("bat.optimize", 0.0)
    values = {
        "watershed.sobel_s": total.get("watershed.sobel", 0.0),
        "watershed.h_minima_s": total.get("watershed.h_minima", 0.0),
        "watershed.regional_minima_s": total.get("watershed.regional_minima", 0.0),
        "watershed.flood_s": sum(
            t for i, t in own.items() if rec.spans[i].name == "watershed.segment"
        ),
        "watershed.labels_to_mask_s": total.get("watershed.labels_to_mask", 0.0),
        "watershed.boundary_s": total.get("watershed.boundary", 0.0),
        "watershed.markers": markers,
        "watershed.heap_pushes": pixels - marker_pixels,
        "watershed.ridge_frac": ridge / pixels,
        "watershed.ridge_pixels": ridge,
        "bat.optimize_s": optimize_s,
        "bat.evaluations": evaluations,
        "bat.us_per_eval": 1e6 * optimize_s / evaluations,
        "bat.accepted_frac": accepted / (params.population * params.iterations),
        "bat.iters_to_best": iters_to_best,
        "bat.otsu_gap": otsu_gap,
        "wavelet.iuwt_s": total.get("wavelet.iuwt", 0.0),
        "wavelet.enhance_s": total.get("wavelet.enhance", 0.0),
        "wavelet.bytes_computed": bytes_computed,
        "histeq.equalize_s": total.get("histeq.equalize", 0.0),
        "metrics.full_report_s": total.get("metrics.full_report", 0.0),
        "metrics.roc_s": total.get("metrics.roc", 0.0),
        "image.read_pgm_s": total.get("image.read_pgm", 0.0),
        "pipeline.write_outputs_s": total.get("pipeline.write_outputs", 0.0),
        "pipeline.bytes_written": bytes_written,
        "pipeline.glue_s": untraced_s - stages,
        "cli.run_s": total.get("cli.run", 0.0),
        "trace.overhead_frac": (root.duration - untraced_s) / untraced_s,
    }
    for key in values:
        if key.endswith("_s") or key == "bat.us_per_eval":
            values[key] *= speed
    return values


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    smoke: bool = False,
    import_s: float = 0.0,
    setup_reps: int = SETUP_REPS,
    out_root: Path = ROOT / ".perfbench",
) -> tuple[dict, dict]:
    """Set up and measure one workload; returns (result line, full record).

    ``load()`` must have been called first.
    """
    import hostspeed
    import spans
    from workloads import CheckFailed, check_outputs, workloads

    wl = workloads(smoke)[name]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    rec = spans.Recorder(capture_only=not trace)
    work = out_root / f"work-{name}-{os.getpid()}"
    hashes: dict[int, tuple[str, str]] = {}

    def segment(inp, cfg, k: int, traced_id: int | None = None):
        """Run and check one input; returns (seconds, result).

        Every run of input ``k``, traced or not, must give the same
        labels and mask hashes as its first run.
        """
        rec.last.clear()
        if traced_id is None:
            t = time.perf_counter()
            wl.run(inp, cfg)
            dt = time.perf_counter() - t
        else:
            with rec.image(traced_id):
                t = time.perf_counter()
                wl.run(inp, cfg)
                dt = time.perf_counter() - t
        result = rec.last["pipeline.run"]
        hs = check_outputs(wl, inp, result, rec.last["watershed.regional_minima"][1])
        if hashes.setdefault(k, hs) != hs:
            raise CheckFailed(f"outputs of input {k} differ from its earlier run")
        return dt, result

    # Every time below is a wall time times the host-speed factor of the
    # probes taken just before and just after it; raw times go to the record.
    raw_setup: list[float] = []
    setup_times: list[float] = []
    raw_latencies: list[float] = []
    latencies: list[float] = []
    speeds: list[float] = []
    f_values: list[float] = []
    acc_values: list[float] = []
    layer_rows: list[dict] = []
    failures: list[dict] = []
    pixels = 0
    work.mkdir(parents=True, exist_ok=True)
    try:
        with rec.install():
            before = hostspeed.probe()
            import_speed = hostspeed.factor(before, before)
            setup_speed: list[float] = []
            for _ in range(setup_reps):
                t = time.perf_counter()
                if trace:
                    with rec.image(spans.SETUP_IMAGE):
                        cfg, inputs = wl.make_inputs(seed, work)
                else:
                    cfg, inputs = wl.make_inputs(seed, work)
                wl.run(inputs[0], cfg)  # warm-up image; checked when measured
                raw_setup.append(time.perf_counter() - t)
                after = hostspeed.probe()
                setup_speed.append(hostspeed.factor(before, after))
                setup_times.append(raw_setup[-1] * setup_speed[-1])
                before = after

            need = 1 if trace else MIN_SAMPLES
            deadline = time.perf_counter() + seconds
            i = 0
            while i < need or time.perf_counter() < deadline:
                k = i % len(inputs)
                try:
                    dt, result = segment(inputs[k], cfg, k)
                    if trace:
                        segment(inputs[k], cfg, k, traced_id=i)
                except Exception as exc:  # counted in failed; the run goes on
                    failures.append({"image": i, "input": k, "error": repr(exc)})
                    result = None
                after = hostspeed.probe()
                speed = hostspeed.factor(before, after)
                before = after
                if result is not None:
                    raw_latencies.append(dt)
                    latencies.append(dt * speed)
                    speeds.append(speed)
                    f_values.append(result.report.f_measure)
                    acc_values.append(result.report.accuracy)
                    pixels += wl.size * wl.size
                    if trace:
                        layer_rows.append(_layer_values(rec, i, dt, speed))
                i += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = i
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "host": {"cpus": os.cpu_count(), "machine": platform.machine()},
        "reference_probe_s": hostspeed.REFERENCE_S,
        "import_raw_s": import_s,
        "import_speed": import_speed,
        "setup_rep_raw_s": raw_setup,
        "setup_rep_s": setup_times,
        "setup_speed": setup_speed,
        "latency_raw_s": raw_latencies,
        "latency_samples_s": latencies,
        "speed": speeds,
        "failures": failures,
        "output_sha256": {str(k): {"labels": h[0], "mask": h[1]} for k, h in sorted(hashes.items())},
    }
    if trace:
        phantom = [s.duration for s in rec.spans_of(spans.SETUP_IMAGE) if s.name == "image.phantom"]
        values = {
            key: statistics.median(row[key] for row in layer_rows) if layer_rows else 0.0
            for key in units
            if key != "image.phantom_s"
        }
        values["image.phantom_s"] = (
            statistics.median(phantom) * statistics.median(setup_speed) if phantom else 0.0
        )
        record["spans"] = [s.as_dict() for s in rec.spans]
        record["traced_images"] = len(layer_rows)
    else:
        tail, tail_pct = _tail(latencies) if latencies else (0.0, 0.0)
        record["latency_tail_percentile"] = tail_pct
        values = {
            "setup_s": import_s * import_speed + statistics.median(setup_times),
            "throughput_mpix_s": pixels / sum(latencies) / 1e6 if latencies else 0.0,
            "latency_p50_s": statistics.median(latencies) if latencies else 0.0,
            "latency_tail_s": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "f_measure": statistics.fmean(f_values) if f_values else 0.0,
            "accuracy_pct": statistics.fmean(acc_values) if acc_values else 0.0,
            "ok_frac": (attempted - len(failures)) / attempted,
        }
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    line = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }
    record["result"] = line
    out_root.mkdir(parents=True, exist_ok=True)
    path = out_root / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    record["path"] = str(path)
    return line, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_s = load()
    except ImportError as exc:
        print(f"perfbench: cannot import lcseg from this checkout: {exc}", file=sys.stderr)
        return 2
    try:
        line, record = run(
            args.workload, args.seed, args.seconds, bool(args.trace), import_s=import_s
        )
    except Exception:
        traceback.print_exc()
        return 1
    print(f"{args.workload} seed {args.seed}: {line['attempted']} images, {line['failed']} failed")
    if record["speed"]:
        slowdown = 1.0 / statistics.median(record["speed"])
        raw_p50 = statistics.median(record["latency_raw_s"])
        print(f"host ran {slowdown:.2f}x the reference probe time; raw wall p50 {raw_p50:.4f} s")
    if not args.trace:
        n = len(record["latency_samples_s"])
        print(f"latency_tail_s is p{record['latency_tail_percentile']:.1f} of {n} samples")
    else:
        print(f"per-layer values are medians over {record['traced_images']} traced images")
    first = record["output_sha256"].get("0", {})
    print(f"input 0 labels sha256 {first.get('labels')} mask sha256 {first.get('mask')}")
    for failure in record["failures"][:5]:
        print(f"failed image {failure['image']}: {failure['error']}")
    print(f"record written to {record['path']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
