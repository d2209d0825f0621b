"""INI-style pipeline configuration: parse, validate, serialize.

The format is deliberately minimal: ``[section]`` headers, ``key = value``
lines, ``#`` comments, UTF-8.  Unknown sections or keys are rejected
outright so that typos fail fast.  One table, :data:`_SCHEMA`, maps every
``(section, key)`` to the config field it sets and fixes the canonical
order; parsing, serialization and the unknown-key check all read it, and
every default comes from the dataclasses themselves.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace

from .bat import BatParams
from .image import check_int
from .watershed import check_h_min
from .wavelet import check_scales

__all__ = [
    "RoiRect",
    "PipelineConfig",
    "parse_config",
    "parse_scales",
    "load_config",
    "serialize_config",
]


@dataclass(frozen=True)
class RoiRect:
    x0: int
    y0: int
    w: int
    h: int

    def __post_init__(self) -> None:
        for name, least in dict(x0=0, y0=0, w=1, h=1).items():
            check_int(f"ROI {name}", getattr(self, name), least)


@dataclass(frozen=True)
class PipelineConfig:
    wavelet_levels: int = 3
    kept_scales: tuple[int, ...] = (2, 3)
    bat: BatParams = field(default_factory=BatParams)  # bat.seed is the run's seed
    roi: RoiRect | None = None
    h_min: float = 5.0
    output_dir: str = "out"

    def __post_init__(self) -> None:
        check_int("wavelet_levels", self.wavelet_levels, 1)
        check_scales(self.wavelet_levels, self.kept_scales)
        check_h_min(self.h_min)
        if not self.output_dir:
            raise ValueError("output_dir must not be empty")

    def with_seed(self, seed: int) -> "PipelineConfig":
        return replace(self, bat=replace(self.bat, seed=seed))


def parse_scales(text: str) -> tuple[int, ...]:
    """Comma-separated scale indices, one ``int()`` a token: ``"2, 3"`` -> ``(2, 3)``."""
    return tuple(int(tok) for tok in text.split(","))


def _fmt_float(x: float) -> str:
    # Short form when it reads back exactly, else the shortest exact repr.
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


# (parse, format) pairs of the value kinds.
_INT = (int, str)
_FLOAT = (float, _fmt_float)
_STR = (str, str)
_SCALES = (parse_scales, lambda scales: ",".join(str(k) for k in scales))

# (section, key) -> (field, kind), in canonical order.  A field is an
# attribute of PipelineConfig, or ``bat.<name>`` / ``roi.<name>``.
_SCHEMA = {
    ("wavelet", "levels"): ("wavelet_levels", _INT),
    ("wavelet", "kept_scales"): ("kept_scales", _SCALES),
    ("bat", "population"): ("bat.population", _INT),
    ("bat", "iterations"): ("bat.iterations", _INT),
    ("bat", "f_min"): ("bat.f_min", _FLOAT),
    ("bat", "f_max"): ("bat.f_max", _FLOAT),
    ("bat", "alpha"): ("bat.alpha", _FLOAT),
    ("bat", "gamma"): ("bat.gamma", _FLOAT),
    ("bat", "loudness"): ("bat.a0", _FLOAT),
    ("bat", "pulse_rate"): ("bat.r0", _FLOAT),
    ("roi", "x0"): ("roi.x0", _INT),
    ("roi", "y0"): ("roi.y0", _INT),
    ("roi", "w"): ("roi.w", _INT),
    ("roi", "h"): ("roi.h", _INT),
    ("watershed", "h_min"): ("h_min", _FLOAT),
    ("pipeline", "seed"): ("bat.seed", _INT),
    ("pipeline", "output_dir"): ("output_dir", _STR),
}


def parse_config(text: str) -> PipelineConfig:
    """Parse configuration text, rejecting anything outside the schema.

    Keys left out keep their dataclass defaults; a ``[roi]`` section must
    give all four of its keys.
    """
    parser = configparser.ConfigParser(
        comment_prefixes=("#",), inline_comment_prefixes=("#",), interpolation=None
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"bad config syntax: {exc}") from exc

    sections = {section for section, _ in _SCHEMA}
    for section in parser.sections():
        if section not in sections:
            raise ValueError(f"unknown config section [{section}]")
        for key in parser[section]:
            if (section, key) not in _SCHEMA:
                raise ValueError(f"unknown config key {key!r} in section [{section}]")

    if parser.has_section("roi"):
        missing = [k for s, k in _SCHEMA if s == "roi" and not parser.has_option(s, k)]
        if missing:
            raise ValueError(f"[roi] section is missing keys {missing}")

    # Field values by owner: "" is PipelineConfig itself.
    values: dict[str, dict] = {"": {}, "bat": {}, "roi": {}}
    for (section, key), (path, (parse, _)) in _SCHEMA.items():
        if parser.has_option(section, key):
            owner, _, name = path.rpartition(".")
            try:
                values[owner][name] = parse(parser.get(section, key))
            except ValueError as exc:
                raise ValueError(f"bad value for {key!r} in [{section}]: {exc}") from exc
    roi = RoiRect(**values["roi"]) if parser.has_section("roi") else None
    return PipelineConfig(bat=BatParams(**values["bat"]), roi=roi, **values[""])


def load_config(path) -> PipelineConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def serialize_config(cfg: PipelineConfig) -> str:
    """Canonical INI text; parse(serialize(c)) == c.

    Sections and keys follow :data:`_SCHEMA`; ``[roi]`` is left out when
    there is no ROI.
    """
    blocks: dict[str, list[str]] = {}
    for (section, key), (path, (_, fmt)) in _SCHEMA.items():
        owner, _, name = path.rpartition(".")
        obj = getattr(cfg, owner) if owner else cfg
        if obj is not None:
            lines = blocks.setdefault(section, [f"[{section}]"])
            lines.append(f"{key} = {fmt(getattr(obj, name))}")
    return "\n\n".join("\n".join(lines) for lines in blocks.values()) + "\n"
