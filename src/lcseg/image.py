"""Pixel containers, netpbm I/O and the synthetic mesh phantom.

Image conventions used throughout the package:

* gray image   -- 2-D ``numpy.ndarray`` of ``uint8``, shape ``(height, width)``
* float image  -- 2-D ``numpy.ndarray`` of ``float64``, all values finite
* binary mask  -- 2-D ``numpy.ndarray`` of ``bool`` (True = lamina tissue)
* label map    -- 2-D ``numpy.ndarray`` of ``int32`` (0 = ridge, >=1 = basin)

Arrays are treated as immutable once handed to an operation; every function
returns fresh arrays and never mutates its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PgmError",
    "PhantomSpec",
    "read_pgm",
    "write_pgm",
    "write_overlay",
    "crop",
    "generate_phantom",
    "scale_to_255",
    "separable_filter",
    "to_gray8",
    "labels_to_gray8",
    "mask_to_gray8",
    "as_gray",
]


class PgmError(ValueError):
    """Raised for malformed, unsupported or truncated netpbm files."""


def as_gray(arr: np.ndarray) -> np.ndarray:
    """Validate and return ``arr`` as a uint8 gray image."""
    a = np.asarray(arr)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"expected a non-empty 2-D image, got shape {a.shape}")
    if a.dtype != np.uint8:
        if a.min() < 0 or a.max() > 255:
            raise ValueError("gray image values must lie in [0, 255]")
        a = a.astype(np.uint8)
    return a


def scale_to_255(surface: np.ndarray) -> np.ndarray:
    """Affine rescale onto [0, 255] (float); constant surfaces map to 0."""
    lo = surface.min()
    hi = surface.max()
    if hi == lo:
        return np.zeros_like(surface)
    return (surface - lo) / (hi - lo) * 255.0


def separable_filter(plane: np.ndarray, taps: np.ndarray, spacing: int = 1) -> np.ndarray:
    """Correlate a 2-D float plane with ``taps`` along rows, then columns.

    The taps are centered (odd count) and spaced ``spacing`` pixels apart;
    the border is mirror-extended (reflection about the edge pixel, no
    edge repeat), so the reach ``len(taps) // 2 * spacing`` must not
    exceed ``n - 1`` on either axis.  Each pass sums the tap products in
    tap order, starting from zero.
    """
    h, w = plane.shape
    reach = len(taps) // 2 * spacing
    padded = np.pad(plane, ((reach, reach), (0, 0)), mode="reflect")
    rows = np.zeros_like(plane, dtype=np.float64)
    for k, tap in enumerate(taps):
        rows += tap * padded[k * spacing : k * spacing + h, :]
    padded = np.pad(rows, ((0, 0), (reach, reach)), mode="reflect")
    out = np.zeros_like(rows)
    for k, tap in enumerate(taps):
        out += tap * padded[:, k * spacing : k * spacing + w]
    return out


def to_gray8(values: np.ndarray) -> np.ndarray:
    """Quantize floats onto the 8-bit grid: round half up, clamp, uint8.

    The one quantization rule of the package.  Ties go up (towards +inf)
    so that independently written oracles can reproduce results
    bit-exactly (numpy's own ``round`` ties to even).
    """
    rounded = np.floor(np.asarray(values, dtype=np.float64) + 0.5)
    return np.clip(rounded, 0, 255).astype(np.uint8)


def labels_to_gray8(labels: np.ndarray) -> np.ndarray:
    """Label map as an 8-bit raster; basins above 255 saturate at 255."""
    return np.minimum(labels, 255).astype(np.uint8)


def mask_to_gray8(mask: np.ndarray) -> np.ndarray:
    """Binary mask as an 8-bit raster: 255 tissue, 0 pore."""
    return np.asarray(mask, dtype=bool).astype(np.uint8) * 255


# ---------------------------------------------------------------------------
# netpbm I/O
# ---------------------------------------------------------------------------

def _tokenize_header(data: bytes, count: int) -> tuple[list[bytes], int]:
    """Return the first ``count`` whitespace-separated header tokens.

    ``#`` starts a comment running to end of line, as allowed by the
    netpbm specification.  Returns the tokens and the offset of the first
    byte after the single whitespace character terminating the last token.
    """
    tokens: list[bytes] = []
    i = 0
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i : i + 1] == b"#":
            while i < n and data[i : i + 1] != b"\n":
                i += 1
            continue
        if i >= n:
            raise PgmError("malformed PGM header: unexpected end of file")
        start = i
        while i < n and not data[i : i + 1].isspace() and data[i : i + 1] != b"#":
            i += 1
        tokens.append(data[start:i])
    if i < n and data[i : i + 1].isspace():
        i += 1  # single whitespace after maxval, then raw pixel data
    return tokens, i


def read_pgm(path) -> np.ndarray:
    """Read a P5 (binary) or P2 (ASCII) PGM file with maxval 255.

    The two encodings of the same raster yield identical arrays.
    """
    with open(path, "rb") as fh:
        data = fh.read()

    if data[:2] not in (b"P5", b"P2"):
        raise PgmError("malformed PGM header: expected P2 or P5 magic")
    magic = data[:2]
    tokens, offset = _tokenize_header(data[2:], 3)
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise PgmError(f"malformed PGM header: non-numeric field {tokens}") from exc
    if width < 1 or height < 1:
        raise PgmError(f"malformed PGM header: bad dimensions {width}x{height}")
    if maxval != 255:
        raise PgmError(f"unsupported maxval {maxval} (only 255 is supported)")

    npix = width * height
    body = data[2 + offset :]
    if magic == b"P5":
        if len(body) < npix:
            raise PgmError(
                f"truncated PGM pixel data: expected {npix} bytes, got {len(body)}"
            )
        flat = np.frombuffer(body[:npix], dtype=np.uint8)
    else:
        fields = body.split()
        if len(fields) < npix:
            raise PgmError(
                f"truncated PGM pixel data: expected {npix} values, got {len(fields)}"
            )
        try:
            values = [int(f) for f in fields[:npix]]
        except ValueError as exc:
            raise PgmError("malformed PGM pixel data: non-numeric value") from exc
        if any(v < 0 or v > 255 for v in values):
            raise PgmError("malformed PGM pixel data: value outside [0, 255]")
        flat = np.array(values, dtype=np.uint8)
    return flat.reshape(height, width)


def write_pgm(image: np.ndarray, path) -> None:
    """Write a gray image as binary (P5) PGM; round-trips bit-exactly."""
    img = as_gray(image)
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def write_overlay(image: np.ndarray, boundary: np.ndarray, path) -> None:
    """Write a P6 PPM of ``image`` with ``boundary`` pixels painted red.

    Gray values are replicated to (v, v, v); wherever ``boundary`` is true
    the pixel is forced to (255, 0, 0).
    """
    img = as_gray(image)
    mask = np.asarray(boundary, dtype=bool)
    if mask.shape != img.shape:
        raise ValueError(
            f"dimension mismatch: image {img.shape} vs boundary {mask.shape}"
        )
    h, w = img.shape
    rgb = np.repeat(img[:, :, np.newaxis], 3, axis=2)
    rgb[mask] = (255, 0, 0)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(rgb.astype(np.uint8).tobytes())


def crop(image: np.ndarray, x0: int, y0: int, w: int, h: int) -> np.ndarray:
    """Return the w-by-h sub-raster with top-left corner (x0, y0)."""
    img = np.asarray(image)
    if img.ndim != 2:
        raise ValueError("crop expects a 2-D image")
    if w < 1 or h < 1:
        raise ValueError(f"crop size must be at least 1x1, got {w}x{h}")
    if x0 < 0 or y0 < 0 or x0 + w > img.shape[1] or y0 + h > img.shape[0]:
        raise ValueError(
            f"crop rectangle ({x0},{y0},{w},{h}) exceeds image "
            f"{img.shape[1]}x{img.shape[0]}"
        )
    return img[y0 : y0 + h, x0 : x0 + w].copy()


# ---------------------------------------------------------------------------
# Synthetic mesh phantom
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhantomSpec:
    """Parameters of the synthetic beam-lattice phantom.

    The phantom emulates the mesh morphology of lamina cribrosa tissue:
    an axis-aligned lattice of bright beams (intensity 200) over dark
    pores (intensity 50), optionally corrupted by clamped Gaussian noise.
    """

    width: int
    height: int
    beam_period: int = 32
    beam_width: int = 10
    noise_sigma: float = 0.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("phantom dimensions must be at least 1x1")
        if self.beam_period < 2:
            raise ValueError("beam_period must be at least 2")
        if not 1 <= self.beam_width < self.beam_period:
            raise ValueError("beam_width must satisfy 1 <= beam_width < beam_period")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")


def generate_phantom(spec: PhantomSpec) -> tuple[np.ndarray, np.ndarray]:
    """Generate the phantom image and its noise-free ground-truth mask.

    A pixel is beam iff ``x % beam_period < beam_width`` or the same in y.
    The image is 200 on beams and 50 on pores plus Gaussian noise of the
    requested sigma, rounded half-up and clamped to [0, 255].  The noise
    stream comes from numpy's PCG64 generator seeded with ``rng_seed``,
    so identical specs produce identical pixels.
    """
    xs = np.arange(spec.width) % spec.beam_period < spec.beam_width
    ys = np.arange(spec.height) % spec.beam_period < spec.beam_width
    mask = ys[:, np.newaxis] | xs[np.newaxis, :]
    base = np.where(mask, 200.0, 50.0)
    rng = np.random.default_rng(spec.rng_seed)
    noisy = base + rng.normal(0.0, spec.noise_sigma, size=base.shape)
    return to_gray8(noisy), mask
