"""INI-style pipeline configuration: parse, validate, serialize.

The format is deliberately minimal: ``[section]`` headers, ``key = value``
lines, ``#`` comments, UTF-8.  Unknown sections or keys are rejected
outright so that typos fail fast.  Serialization is canonical (fixed
section and key order), which makes parse -> serialize idempotent.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace

from .bat import BatParams

__all__ = ["RoiRect", "PipelineConfig", "parse_config", "load_config", "serialize_config"]


@dataclass(frozen=True)
class RoiRect:
    x0: int
    y0: int
    w: int
    h: int

    def __post_init__(self) -> None:
        if self.x0 < 0 or self.y0 < 0 or self.w < 1 or self.h < 1:
            raise ValueError(f"invalid ROI rectangle {self}")


@dataclass(frozen=True)
class PipelineConfig:
    wavelet_levels: int = 3
    kept_scales: tuple[int, ...] = (2, 3)
    bat: BatParams = field(default_factory=BatParams)
    roi: RoiRect | None = None
    h_min: float = 5.0
    basin_rule: str = "otsu"  # "otsu" or "threshold" (uses the bat threshold)
    seed: int = 0
    output_dir: str = "out"

    def __post_init__(self) -> None:
        if self.wavelet_levels < 1:
            raise ValueError("wavelet levels must be at least 1")
        if not self.kept_scales:
            raise ValueError("kept_scales must be non-empty")
        if any(k < 1 or k > self.wavelet_levels for k in self.kept_scales):
            raise ValueError(
                f"kept_scales {self.kept_scales} outside 1..{self.wavelet_levels}"
            )
        if self.h_min < 0:
            raise ValueError("h_min must be non-negative")
        if self.basin_rule not in ("otsu", "threshold"):
            raise ValueError(f"unknown basin_rule {self.basin_rule!r}")

    def with_seed(self, seed: int) -> "PipelineConfig":
        return replace(self, seed=seed, bat=replace(self.bat, seed=seed))


_SCHEMA: dict[str, tuple[str, ...]] = {
    "wavelet": ("levels", "kept_scales"),
    "bat": (
        "population",
        "iterations",
        "f_min",
        "f_max",
        "alpha",
        "gamma",
        "loudness",
        "pulse_rate",
    ),
    "roi": ("x0", "y0", "w", "h"),
    "watershed": ("h_min", "basin_rule"),
    "pipeline": ("seed", "output_dir"),
}


def parse_config(text: str) -> PipelineConfig:
    """Parse configuration text, rejecting anything outside the schema."""
    parser = configparser.ConfigParser(
        comment_prefixes=("#",), inline_comment_prefixes=("#",), interpolation=None
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"bad config syntax: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ValueError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ValueError(f"unknown config key {key!r} in section [{section}]")

    def get(section: str, key: str, default):
        if parser.has_option(section, key):
            return parser.get(section, key)
        return default

    try:
        levels = int(get("wavelet", "levels", 3))
        kept_raw = str(get("wavelet", "kept_scales", "2,3"))
        kept = tuple(int(tok) for tok in kept_raw.replace(" ", "").split(",") if tok)
        seed = int(get("pipeline", "seed", 0))
        bat = BatParams(
            population=int(get("bat", "population", 20)),
            iterations=int(get("bat", "iterations", 500)),
            f_min=float(get("bat", "f_min", 0.0)),
            f_max=float(get("bat", "f_max", 2.0)),
            alpha=float(get("bat", "alpha", 0.9)),
            gamma=float(get("bat", "gamma", 0.9)),
            a0=float(get("bat", "loudness", 1.0)),
            r0=float(get("bat", "pulse_rate", 0.5)),
            lower=(0.0,),
            upper=(255.0,),
            seed=seed,
        )
        roi = None
        if parser.has_section("roi"):
            missing = [k for k in _SCHEMA["roi"] if not parser.has_option("roi", k)]
            if missing:
                raise ValueError(f"[roi] section is missing keys {missing}")
            roi = RoiRect(
                x0=int(parser.get("roi", "x0")),
                y0=int(parser.get("roi", "y0")),
                w=int(parser.get("roi", "w")),
                h=int(parser.get("roi", "h")),
            )
        return PipelineConfig(
            wavelet_levels=levels,
            kept_scales=kept,
            bat=bat,
            roi=roi,
            h_min=float(get("watershed", "h_min", 5.0)),
            basin_rule=str(get("watershed", "basin_rule", "otsu")),
            seed=seed,
            output_dir=str(get("pipeline", "output_dir", "out")),
        )
    except ValueError:
        raise
    except Exception as exc:  # configparser corner cases
        raise ValueError(f"bad config value: {exc}") from exc


def load_config(path) -> PipelineConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _fmt_float(x: float) -> str:
    return f"{x:g}"


def serialize_config(cfg: PipelineConfig) -> str:
    """Canonical INI text; parse(serialize(c)) == c."""
    lines = [
        "[wavelet]",
        f"levels = {cfg.wavelet_levels}",
        f"kept_scales = {','.join(str(k) for k in cfg.kept_scales)}",
        "",
        "[bat]",
        f"population = {cfg.bat.population}",
        f"iterations = {cfg.bat.iterations}",
        f"f_min = {_fmt_float(cfg.bat.f_min)}",
        f"f_max = {_fmt_float(cfg.bat.f_max)}",
        f"alpha = {_fmt_float(cfg.bat.alpha)}",
        f"gamma = {_fmt_float(cfg.bat.gamma)}",
        f"loudness = {_fmt_float(cfg.bat.a0)}",
        f"pulse_rate = {_fmt_float(cfg.bat.r0)}",
        "",
    ]
    if cfg.roi is not None:
        lines += [
            "[roi]",
            f"x0 = {cfg.roi.x0}",
            f"y0 = {cfg.roi.y0}",
            f"w = {cfg.roi.w}",
            f"h = {cfg.roi.h}",
            "",
        ]
    lines += [
        "[watershed]",
        f"h_min = {_fmt_float(cfg.h_min)}",
        f"basin_rule = {cfg.basin_rule}",
        "",
        "[pipeline]",
        f"seed = {cfg.seed}",
        f"output_dir = {cfg.output_dir}",
    ]
    return "\n".join(lines) + "\n"
