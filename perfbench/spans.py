"""In-memory spans recorded around calls into lcseg's public functions.

Nothing inside ``lcseg`` is instrumented.  :meth:`Recorder.install`
replaces each target function, in every ``lcseg`` module namespace that
holds it, with a wrapper defined here, and restores the originals on
exit.  A wrapper records a span (name, start, end, parent, image id)
only while an image is open with :meth:`Recorder.image`; outside one it
just calls through, keeping the last return value of the targets listed
in ``CAPTURE`` so the output check can read them.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

import numpy as np

# (module, function) -> span name.  The span name's prefix is the layer.
TARGETS = {
    ("lcseg.wavelet", "iuwt_decompose"): "wavelet.iuwt",
    ("lcseg.wavelet", "enhance_scales"): "wavelet.enhance",
    ("lcseg.bat", "optimize_threshold"): "bat.optimize",
    ("lcseg.histeq", "equalize"): "histeq.equalize",
    ("lcseg.watershed", "gradient_magnitude"): "watershed.sobel",
    ("lcseg.watershed", "watershed_segment"): "watershed.segment",
    ("lcseg.watershed", "h_minima"): "watershed.h_minima",
    ("lcseg.watershed", "regional_minima"): "watershed.regional_minima",
    ("lcseg.watershed", "labels_to_mask"): "watershed.labels_to_mask",
    ("lcseg.watershed", "mask_boundary"): "watershed.boundary",
    ("lcseg.metrics", "full_report"): "metrics.full_report",
    ("lcseg.metrics", "roc_sweep"): "metrics.roc",
    ("lcseg.image", "read_pgm"): "image.read_pgm",
    ("lcseg.image", "generate_phantom"): "image.phantom",
    ("lcseg.pipeline", "run_pipeline"): "pipeline.run",
    ("lcseg.pipeline", "write_outputs"): "pipeline.write_outputs",
    ("lcseg.cli", "main"): "cli.run",
}


def _keep_call(args, kwargs, result):
    return args, kwargs, result


def _keep_markers(args, kwargs, result):
    # watershed_segment floods into the returned label array in place, so
    # the marker pixels are counted before it does.
    labels, count = result
    return int(np.count_nonzero(labels)), count


# Spans whose call is kept, as the function makes it, until the run
# derives the image's counters from it; the run then drops it.
KEEP = {
    "wavelet.iuwt": _keep_call,
    "wavelet.enhance": _keep_call,
    "bat.optimize": _keep_call,
    "watershed.regional_minima": _keep_markers,
    "watershed.labels_to_mask": _keep_call,
    "pipeline.write_outputs": _keep_call,
}

# Return values the output check reads, kept in traced and untraced runs.
CAPTURE = ("pipeline.run", "watershed.regional_minima")

SETUP_IMAGE = -1


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 for a root
    image: int
    call: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "image": self.image,
        }


class Recorder:
    """Holds every span of one benchmark run and the captured returns."""

    def __init__(self, capture_only: bool):
        self.capture_only = capture_only
        self.spans: list[Span] = []
        self.last: dict[str, Any] = {}
        self._image: int | None = None
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        keep = KEEP.get(name)
        capture = name in CAPTURE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._image is None:
                result = fn(*args, **kwargs)
                if capture:
                    self.last[name] = result
                return result
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, self._image)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if keep is not None:
                span.call = keep(args, kwargs, result)
            if capture:
                self.last[name] = result
            return result

        return wrapper

    @contextmanager
    def install(self):
        """Patch the targets into every loaded ``lcseg`` module."""
        patched: list[tuple[object, str, object]] = []
        try:
            for (mod_name, attr), name in TARGETS.items():
                if self.capture_only and name not in CAPTURE:
                    continue
                original = getattr(sys.modules[mod_name], attr)
                wrapper = self._wrap(name, original)
                for mod_key, mod in list(sys.modules.items()):
                    if mod_key != "lcseg" and not mod_key.startswith("lcseg."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            patched.append((mod, key, original))
            yield self
        finally:
            for mod, key, original in reversed(patched):
                setattr(mod, key, original)

    @contextmanager
    def image(self, image_id: int):
        """Record spans of ``image_id`` while the block runs."""
        self._image = image_id
        try:
            yield
        finally:
            self._image = None
            self._stack.clear()

    def spans_of(self, image_id: int) -> list[Span]:
        return [s for s in self.spans if s.image == image_id]

    def self_times(self, image_id: int) -> dict[int, float]:
        """Span index -> duration minus the time its direct children cover."""
        own = {i: s.duration for i, s in enumerate(self.spans) if s.image == image_id}
        for i, s in enumerate(self.spans):
            if s.image == image_id and s.parent in own:
                own[s.parent] -= s.duration
        return own
