"""The benchmark's workloads and the per-image output check.

Every input comes from ``lcseg.image.generate_phantom``, seeded from the
workload seed; lcseg itself only ever sees the generated images.  Why
each workload exists is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from lcseg import cli, config, image, pipeline

# Artifacts `lcseg run --truth ... --dump` writes.
CLI_ARTIFACTS = frozenset(
    {
        "enhanced.pgm",
        "equalized.pgm",
        "labels.pgm",
        "mask.pgm",
        "overlay.ppm",
        "convergence.csv",
        "report.csv",
        "roc.csv",
        "roc_baseline.csv",
        "gradient.pgm",
    }
)


class CheckFailed(Exception):
    """An image's outputs broke the benchmark's output contract."""


@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # phantom side in pixels
    geometries: tuple[tuple[int, int], ...]  # (beam period, beam width), cycled
    sigma: float
    pool: int  # distinct phantoms; images cycle through them
    via_cli: bool

    def make_inputs(self, seed: int, work_dir: Path) -> tuple[config.PipelineConfig, list[Any]]:
        """Write and load the default config, then generate the inputs.

        Returns the loaded config and one input per phantom: an
        ``(image, truth)`` pair, or for the CLI workload the argv of one
        ``lcseg run`` invocation.
        """
        cfg_path = work_dir / "config.ini"
        cfg_path.write_text(config.serialize_config(config.PipelineConfig()), encoding="utf-8")
        cfg = config.load_config(cfg_path)
        inputs = []
        for i in range(self.pool):
            period, beam = self.geometries[i % len(self.geometries)]
            spec = image.PhantomSpec(
                width=self.size,
                height=self.size,
                beam_period=period,
                beam_width=beam,
                noise_sigma=self.sigma,
                rng_seed=seed * 10_000 + i,
            )
            img, truth = image.generate_phantom(spec)
            if not self.via_cli:
                inputs.append((img, truth))
                continue
            img_path = work_dir / f"image{i}.pgm"
            truth_path = work_dir / f"truth{i}.pgm"
            image.write_pgm(img, img_path)
            image.write_pgm(truth.astype(np.uint8) * 255, truth_path)
            argv = [
                "run",
                "--input", str(img_path),
                "--truth", str(truth_path),
                "--config", str(cfg_path),
                "--seed", str(seed),
                "--out", str(work_dir / f"out{i}"),
                "--dump",
            ]
            inputs.append(argv)
        return cfg, inputs

    def run(self, inp: Any, cfg: config.PipelineConfig) -> None:
        """Segment one input; the result is read from the recorder's capture."""
        if not self.via_cli:
            img, truth = inp
            pipeline.run_pipeline(img, truth, cfg)
            return
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(inp)
        if code != cli.EXIT_OK:
            raise CheckFailed(f"lcseg run exited with {code}: {sink.getvalue()[-300:]}")


def check_outputs(
    wl: Workload, inp: Any, result: pipeline.PipelineResult, markers: int
) -> tuple[str, str]:
    """Raise CheckFailed unless one image's outputs meet the contract.

    Labels are int32 in 0..K with every basin id 1..K present and K equal
    to the marker count ``regional_minima`` returned; the mask is bool
    with the frame's shape; metrics were computed.  The CLI workload
    must also have written exactly its ten artifacts, with mask.pgm equal
    to the returned mask.  Returns the sha256 of labels and of mask.
    """
    labels, mask = result.labels, result.mask
    frame = (wl.size, wl.size)
    if labels.dtype != np.int32 or labels.shape != frame:
        raise CheckFailed(f"labels are {labels.dtype} {labels.shape}, want int32 {frame}")
    if int(labels.min()) < 0 or int(labels.max()) != markers:
        raise CheckFailed(
            f"labels span {labels.min()}..{labels.max()}, want 0..{markers} (markers)"
        )
    if not np.bincount(labels.ravel(), minlength=markers + 1)[1:].all():
        raise CheckFailed("some basin id in 1..K labels no pixel")
    if mask.dtype != np.bool_ or mask.shape != frame:
        raise CheckFailed(f"mask is {mask.dtype} {mask.shape}, want bool {frame}")
    if result.report is None:
        raise CheckFailed("no metrics report although truth was given")
    if wl.via_cli:
        out = Path(inp[inp.index("--out") + 1])
        written = {p.name for p in out.iterdir()}
        if written != CLI_ARTIFACTS:
            raise CheckFailed(f"artifacts {sorted(written ^ CLI_ARTIFACTS)} differ")
        if not np.array_equal(image.read_pgm(out / "mask.pgm") > 0, mask):
            raise CheckFailed("mask.pgm differs from the returned mask")
    return (
        hashlib.sha256(labels.tobytes()).hexdigest(),
        hashlib.sha256(mask.tobytes()).hexdigest(),
    )


def workloads(smoke: bool = False) -> dict[str, Workload]:
    """The benchmark's workloads; ``smoke`` shrinks every phantom to 64x64."""
    mesh, tile = (64, 64) if smoke else (256, 128)
    mesh_pool, tile_pool = (3, 3) if smoke else (48, 96)
    geometries = ((16, 4), (32, 10), (48, 20))
    return {
        wl.name: wl
        for wl in (
            Workload("mesh256_noisy", mesh, ((32, 10),), 20.0, mesh_pool, False),
            Workload("tiles128_stack", tile, geometries, 20.0, tile_pool, False),
            Workload("mesh256_clean_cli", mesh, ((32, 10),), 0.0, 1, True),
        )
    }
