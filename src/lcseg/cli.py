"""Command-line interface: every pipeline stage as a subcommand.

Exit codes: 0 success, 1 usage error, 2 runtime error, 3 success with a
degenerate-segmentation warning.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import bat, histeq, metrics
from .config import PipelineConfig, load_config, parse_scales
from .image import (
    PhantomSpec,
    generate_phantom,
    labels_to_gray8,
    mask_to_gray8,
    read_pgm,
    scale_to_255,
    to_gray8,
    write_overlay,
    write_pgm,
)
from .pipeline import PipelineError, run_pipeline, segment, write_outputs
from .wavelet import (
    check_scales,
    check_size_for_levels,
    enhance_pyramid,
    enhance_scales,
    iuwt_decompose,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_DEGENERATE = 3


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage errors with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_mask(path) -> np.ndarray:
    return read_pgm(path) > 0


def _exit_code(degenerate: bool) -> int:
    """EXIT_DEGENERATE with a warning for a single-class mask, else EXIT_OK."""
    if degenerate:
        print("warning: degenerate segmentation (single-class mask)", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def _load_pipeline_config(args) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if getattr(args, "seed", None) is not None:
        cfg = cfg.with_seed(args.seed)
    return cfg


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_synth(args) -> int:
    spec = PhantomSpec(
        width=args.size,
        height=args.size,
        beam_period=args.period,
        beam_width=args.beam_width,
        noise_sigma=args.noise,
        rng_seed=args.seed,
    )
    image, mask = generate_phantom(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_pgm(image, out / "image.pgm")
    write_pgm(mask_to_gray8(mask), out / "truth.pgm")
    print(f"wrote {out / 'image.pgm'} and {out / 'truth.pgm'}")
    return EXIT_OK


def _cmd_decompose(args) -> int:
    image = read_pgm(args.input)
    kept = tuple(range(1, args.levels + 1))
    if args.kept is not None:
        try:
            kept = parse_scales(args.kept)
        except ValueError as exc:
            raise ValueError(f"bad value for --kept: {exc}") from exc
    if not args.dump_planes:
        write_pgm(enhance_scales(image, args.levels, kept), args.out)
    else:  # one full pyramid gives the enhanced image and the planes
        check_size_for_levels(image.shape, args.levels)
        check_scales(args.levels, kept)  # before the transform, as enhance_scales does
        pyramid = iuwt_decompose(image, args.levels)
        write_pgm(enhance_pyramid(pyramid, args.levels, kept), args.out)
        plane_dir = Path(args.dump_planes)
        plane_dir.mkdir(parents=True, exist_ok=True)
        for j, plane in enumerate(pyramid.details, start=1):
            write_pgm(to_gray8(scale_to_255(plane)), plane_dir / f"detail_{j}.pgm")
        write_pgm(to_gray8(scale_to_255(pyramid.smooth)), plane_dir / "smooth.pgm")
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_optimize(args) -> int:
    cfg = _load_pipeline_config(args)
    image = read_pgm(args.input)
    threshold, state = bat.optimize_threshold(image, cfg.bat)
    if args.out_csv:
        Path(args.out_csv).write_text(bat.convergence_csv(state), encoding="utf-8", newline="\n")
    print(f"threshold {threshold}")
    print(f"best_fitness {state.best_fitness:.6g}")
    return EXIT_OK


def _cmd_equalize(args) -> int:
    image = read_pgm(args.input)
    write_pgm(histeq.equalize(image), args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_segment(args) -> int:
    image = read_pgm(args.input)
    threshold = args.fixed_threshold
    if threshold is None:  # no bat here: Otsu's exact threshold of the input
        threshold = bat.otsu_threshold(histeq.histogram(image))
    seg = segment(image, args.h_min, threshold)
    if args.out_labels:
        write_pgm(labels_to_gray8(seg.labels), args.out_labels)
    if args.out_mask:
        write_pgm(mask_to_gray8(seg.mask), args.out_mask)
    if args.out_overlay:
        write_overlay(image, seg.boundary, args.out_overlay)
    print(f"threshold {threshold}")
    print(f"basins {seg.labels.max()}")
    return _exit_code(seg.degenerate)


def _cmd_evaluate(args) -> int:
    pred = _read_mask(args.pred)
    truth = _read_mask(args.truth)
    pred_img = read_pgm(args.pred_img) if args.pred_img else mask_to_gray8(pred)
    truth_img = read_pgm(args.truth_img) if args.truth_img else mask_to_gray8(truth)
    report = metrics.full_report(pred, truth, pred_img, truth_img)
    sys.stdout.write(metrics.report_table(report))
    if args.out_csv:
        Path(args.out_csv).write_text(metrics.report_csv(report), encoding="utf-8", newline="\n")
    return EXIT_OK


def _cmd_roc(args) -> int:
    score = read_pgm(args.score)
    truth = _read_mask(args.truth)
    baseline = read_pgm(args.baseline)
    opt_curve, base_curve = metrics.roc_sweep(score, truth, baseline)
    for curve, out in ((opt_curve, args.out_csv), (base_curve, args.out_baseline_csv)):
        Path(out).write_text(metrics.roc_csv(curve), encoding="utf-8", newline="\n")
    print(f"auc {opt_curve.auc:.6g}")
    print(f"baseline_auc {base_curve.auc:.6g}")
    return EXIT_OK


def _cmd_run(args) -> int:
    if args.out == "":
        raise ValueError("--out must not be empty")
    cfg = _load_pipeline_config(args)
    out_dir = cfg.output_dir if args.out is None else args.out
    image = read_pgm(args.input)
    truth = _read_mask(args.truth) if args.truth else None
    result = run_pipeline(image, truth, cfg)
    written = write_outputs(result, out_dir, dump=args.dump)
    print(f"threshold {result.threshold}")
    print(f"basins {result.labels.max()}")
    if result.report is not None:
        sys.stdout.write(metrics.report_table(result.report))
        if result.roc is not None:
            print(f"auc {result.roc[0].auc:.6g}")
            print(f"baseline_auc {result.roc[1].auc:.6g}")
    print(f"wrote {len(written)} files to {out_dir}")
    return _exit_code(result.degenerate)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@functools.cache  # parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lcseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a lattice phantom with ground truth")
    p.add_argument("--seed", type=int, default=PhantomSpec.rng_seed)
    p.add_argument("--size", type=int, default=256)
    p.add_argument("--period", type=int, default=PhantomSpec.beam_period)
    p.add_argument("--beam-width", type=int, default=PhantomSpec.beam_width)
    p.add_argument("--noise", type=float, default=PhantomSpec.noise_sigma)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("decompose", help="wavelet decomposition / enhancement")
    p.add_argument("--input", required=True)
    p.add_argument("--levels", type=int, default=PipelineConfig.wavelet_levels)
    p.add_argument("--kept", default=None, help="comma-separated kept scales")
    p.add_argument("--out", required=True, help="enhanced image path")
    p.add_argument("--dump-planes", default=None, help="directory for plane dumps")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("optimize", help="bat-optimize the intensity threshold")
    p.add_argument("--input", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-csv", default=None, help="convergence curve CSV")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("equalize", help="histogram-equalize an image")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_equalize)

    p = sub.add_parser("segment", help="marker-controlled watershed segmentation")
    p.add_argument("--input", required=True)
    p.add_argument("--h-min", type=float, default=PipelineConfig.h_min)
    p.add_argument(
        "--fixed-threshold",
        type=int,
        default=None,
        help="a basin is tissue iff its mean is > this (default: the input's Otsu threshold)",
    )
    p.add_argument("--out-labels", default=None)
    p.add_argument("--out-mask", default=None)
    p.add_argument("--out-overlay", default=None)
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("evaluate", help="compare a predicted mask to ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--pred-img", default=None)
    p.add_argument("--truth-img", default=None)
    p.add_argument("--out-csv", default=None)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("roc", help="threshold-sweep ROC of score vs baseline images")
    p.add_argument("--score", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--baseline", required=True)
    p.add_argument("--out-csv", default="roc.csv")
    p.add_argument("--out-baseline-csv", default="roc_baseline.csv")
    p.set_defaults(func=_cmd_roc)

    p = sub.add_parser("run", help="full pipeline")
    p.add_argument("--input", required=True)
    p.add_argument("--truth", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--dump", action="store_true", help="dump extra intermediates")
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (PipelineError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
