"""Pixel containers, netpbm I/O and the synthetic mesh phantom.

Image conventions used throughout the package:

* gray image   -- 2-D ``numpy.ndarray`` of ``uint8``, shape ``(height, width)``
* float image  -- 2-D ``numpy.ndarray`` of ``float64``, all values finite
* binary mask  -- 2-D ``numpy.ndarray`` of ``bool`` (True = lamina tissue)
* label map    -- 2-D ``numpy.ndarray`` of ``int32``, basins 1..K (every pixel in one)

Arrays are treated as immutable once handed to an operation; every function
returns fresh arrays and never mutates its inputs.

The separable filter sums in the padded array's dtype.  A uint8 plane
with whole-number taps is filtered in int32 whenever
255 * sum|taps|**2 < 2**31: every sum is then a whole number inside
int32, so int32 and float64 sums agree exactly, and one cast returns
float64.  Any other plane or taps run in float64.
"""

from __future__ import annotations

import math
import re
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
    "mirror_pad",
    "separable_filter",
    "filter_padded",
    "check_same_shape",
    "to_gray8",
    "labels_to_gray8",
    "mask_to_gray8",
    "as_gray",
    "check_int",
]


class PgmError(ValueError):
    """Raised for malformed, unsupported or truncated netpbm files."""


def check_int(name: str, value, least: int) -> None:
    """Raise ``ValueError`` unless ``value`` is an ``int`` (not a bool) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def as_gray(arr: np.ndarray) -> np.ndarray:
    """Validate and return ``arr`` as a uint8 gray image.

    It must be 2-D and non-empty, with whole values in [0, 255].
    """
    a = np.asarray(arr)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"expected a non-empty 2-D image, got shape {a.shape}")
    if a.dtype != np.uint8:
        if not (a.min() >= 0 and a.max() <= 255):  # so that NaN fails
            raise ValueError("gray image values must lie in [0, 255]")
        gray = a.astype(np.uint8)
        if a.dtype.kind not in "biu" and (gray != a).any():  # the cast truncates
            raise ValueError("gray image values must be whole numbers")
        a = gray
    return a


def scale_to_255(surface: np.ndarray) -> np.ndarray:
    """Affine rescale onto [0, 255] (float64); constant surfaces map to 0.

    Each pixel is (s - lo) / (hi - lo) * 255, computed in one fresh array.
    """
    lo = surface.min()
    hi = surface.max()
    if hi == lo:
        return np.zeros(np.shape(surface))
    out = np.subtract(surface, lo, dtype=np.float64)
    out /= hi - lo
    out *= 255.0
    return out


def mirror_pad(a: np.ndarray, reach: int, dtype=None) -> np.ndarray:
    """``a`` mirror-extended by ``reach`` on its last two axes, in ``dtype``.

    Equal to ``numpy.pad(a, reach, mode="reflect")`` on those axes (reflection
    about the edge pixel, no edge repeat; leading axes are not padded),
    cast to ``dtype`` (default: ``a``'s).  ``reach`` must lie in
    0..n - 1 for each axis length n (``ValueError`` otherwise).  Each
    padded sample is written once, straight into the fresh result: the
    columns from ``a``, then the rows from the padded columns, so the
    corners mirror on both axes as ``numpy.pad`` makes them.
    """
    a = np.asarray(a)
    check_int("reach", reach, 0)
    if a.ndim < 2:
        raise ValueError(f"mirror_pad needs at least 2 axes, got shape {a.shape}")
    *lead, h, w = a.shape
    for axis, n in (("y", h), ("x", w)):
        if reach > n - 1:
            raise ValueError(f"cannot mirror-pad: {axis} reach {reach} exceeds n - 1 for n = {n}")
    r = reach
    out = np.empty((*lead, h + 2 * r, w + 2 * r), a.dtype if dtype is None else dtype)
    rows = out[..., r : r + h, :]
    rows[..., r : r + w] = a
    if r:
        rows[..., :r] = a[..., 1 : r + 1][..., ::-1]
        rows[..., r + w :] = a[..., w - 1 - r : w - 1][..., ::-1]
        out[..., :r, :] = out[..., r + 1 : 2 * r + 1, :][..., ::-1, :]
        out[..., r + h :, :] = out[..., h - 1 : r + h - 1, :][..., ::-1, :]
    return out


def filter_padded(padded: np.ndarray, taps: np.ndarray, spacing: int) -> np.ndarray:
    """The two folded passes of :func:`separable_filter` on a padded stack.

    ``padded`` is mirror-padded by the reach of the odd, symmetric
    ``taps`` (unchecked) on its last two axes, and may have any leading
    axes (a stack of planes).  The passes run in its dtype, float64 or
    int32, with the taps cast to it; the result has the unpadded shape
    and is a view into a fresh buffer.
    """
    *lead, padded_h, padded_w = padded.shape
    taps = np.asarray(taps, dtype=padded.dtype)
    half = len(taps) // 2
    reach = half * spacing
    rows = np.empty((*lead, padded_h - 2 * reach, padded_w), padded.dtype)
    out, scratch = np.empty(rows.size, padded.dtype), np.empty(rows.size, padded.dtype)
    # The y pass runs on the padded planes, the x pass on all their rows
    # laid end to end; the x sums that straddle two rows land in the
    # padding columns, which are dropped.  The passes share one scratch
    # buffer, as each fresh buffer costs page faults.  ``rest`` indexes
    # the axes after the one a pass runs along.
    passes = ((padded, rows, (slice(None),)), (rows.ravel(), out[: out.size - 2 * reach], ()))
    for src, dst, rest in passes:
        n = dst.shape[-1 - len(rest)]
        tmp = scratch[: dst.size].reshape(dst.shape)
        np.multiply(src[(..., slice(reach, reach + n), *rest)], taps[half], out=dst)
        for k in range(half):
            own, mirrored = k * spacing, 2 * reach - k * spacing
            np.add(
                src[(..., slice(own, own + n), *rest)],
                src[(..., slice(mirrored, mirrored + n), *rest)],
                out=tmp,
            )
            tmp *= taps[k]
            dst += tmp
    return out.reshape(rows.shape)[..., : padded_w - 2 * reach]


def separable_filter(plane: np.ndarray, taps: np.ndarray, spacing: int = 1) -> np.ndarray:
    """Correlate a 2-D plane with ``taps`` along y, then along x.

    The taps are centered and spaced ``spacing`` pixels apart; the border
    is mirror-extended (reflection about the edge pixel, no edge repeat),
    so the reach ``len(taps) // 2 * spacing`` must not exceed ``n - 1`` on
    either axis.  ``taps`` must be one vector of an odd count of symmetric
    taps (``ValueError`` otherwise), so each pass folds: it starts from
    the centre tap times the centre sample, then, from the outermost tap
    inwards, adds each tap of the first half times its sample plus the
    mirrored one.

    The result is float64.  A uint8 plane with whole-number taps whose
    gain 255 * sum|taps|**2 is below 2**31 is summed in int32.  Its
    arithmetic is exact modulo 2**32 and every result lies inside int32,
    so each value is the whole number that float64, which holds all these
    sums exactly, also computes (a zero that float64 would sign negative
    comes out +0.0).  Any other plane or taps are summed in float64, where
    folding moves results by a few ulps compared with sums in tap order.

    The taps are checked here, :func:`mirror_pad` checks the reach and
    pads straight into the working dtype, and the two passes are
    :func:`filter_padded`, which SSIM's row strips also call.
    """
    plane = np.asarray(plane)
    if plane.ndim != 2:
        raise ValueError(f"separable_filter expects a 2-D plane, got shape {plane.shape}")
    taps = np.asarray(taps, dtype=np.float64)
    if taps.ndim != 1 or len(taps) % 2 == 0 or not np.array_equal(taps, taps[::-1]):
        raise ValueError(f"separable_filter: taps {taps.tolist()} are not one odd symmetric vector")
    whole = plane.dtype == np.uint8 and np.array_equal(taps, np.trunc(taps))
    dtype = np.int32 if whole and 255 * np.abs(taps).sum() ** 2 < 2**31 else np.float64
    padded = mirror_pad(plane, len(taps) // 2 * spacing, dtype)
    return filter_padded(padded, taps, spacing).astype(np.float64, copy=False)


def check_same_shape(a: np.ndarray, b: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` ("dimension mismatch: <what> ...") unless the shapes agree."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {what} {a.shape} vs {b.shape}")


def to_gray8(values: np.ndarray) -> np.ndarray:
    """Quantize floats onto the 8-bit grid: round half up, clamp, uint8.

    The one quantization rule of the package.  Ties go up (towards +inf)
    so that independently written oracles can reproduce results
    bit-exactly (numpy's own ``round`` ties to even).
    """
    rounded = np.add(values, 0.5, dtype=np.float64)
    np.floor(rounded, out=rounded)
    np.clip(rounded, 0, 255, out=rounded)
    return rounded.astype(np.uint8)


def labels_to_gray8(labels: np.ndarray) -> np.ndarray:
    """Label map as an 8-bit raster; basins above 255 saturate at 255."""
    return np.minimum(labels, 255).astype(np.uint8)


def mask_to_gray8(mask: np.ndarray) -> np.ndarray:
    """Binary mask as an 8-bit raster: 255 tissue, 0 pore."""
    return np.asarray(mask, dtype=bool).astype(np.uint8) * 255


# ---------------------------------------------------------------------------
# netpbm I/O
# ---------------------------------------------------------------------------

# One header token after any whitespace and comments.  A comment runs from
# "#" to the end of its line or of the file, never less, so every header
# has one parse and a failed match (end of file) takes linear time.
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]+)")


def _unsigned_ints(fields: list[bytes]) -> list[int]:
    """The values of ``fields``, each one or more ASCII digits as netpbm
    reads them (``int`` alone would also take a sign and "_");
    ``ValueError`` otherwise."""
    if not b"".join(fields).isdigit():
        raise ValueError("a field is not all ASCII digits")
    return [int(f) for f in fields]


def _header_field(number: int, token: bytes) -> int:
    """The value of header field ``number`` (1-based); ``PgmError`` naming
    the field, with at most 20 bytes of it, otherwise."""
    if not token.isdigit():  # ASCII digits only, as in _unsigned_ints
        raise PgmError(f"malformed PGM header: non-numeric field {number}: {token[:20]!r}")
    try:
        return int(token)
    except ValueError as exc:  # past Python's int() digit limit
        raise PgmError(f"malformed PGM header: field {number} has {len(token)} digits") from exc


def read_pgm(path) -> np.ndarray:
    """Read a P5 (binary) or P2 (ASCII) PGM file with maxval 255.

    ``#`` comments, each to the end of its line, may precede any header
    field.  Header fields and P2 samples are unsigned decimal numbers
    (ASCII digits only).  The two encodings of the same raster yield
    identical arrays.
    """
    with open(path, "rb") as fh:
        data = fh.read()

    if data[:2] not in (b"P5", b"P2"):
        raise PgmError("malformed PGM header: expected P2 or P5 magic")
    magic = data[:2]
    tokens, offset = [], 2
    for _ in range(3):  # width, height, maxval
        match = _HEADER_TOKEN.match(data, offset)
        if match is None:
            raise PgmError("malformed PGM header: unexpected end of file")
        tokens.append(match[1])
        offset = match.end()
    if data[offset : offset + 1].isspace():
        offset += 1  # single whitespace after maxval, then raw pixel data
    width, height, maxval = (_header_field(i, token) for i, token in enumerate(tokens, start=1))
    if width < 1 or height < 1:
        raise PgmError(f"malformed PGM header: bad dimensions {width}x{height}")
    if maxval != 255:
        raise PgmError(f"unsupported maxval {maxval} (only 255 is supported)")

    npix = width * height
    body = data[offset:]
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
            values = _unsigned_ints(fields[:npix])
        except ValueError as exc:
            raise PgmError("malformed PGM pixel data: non-numeric value") from exc
        if any(v > 255 for v in values):
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
    check_same_shape(img, mask, "image vs boundary")
    h, w = img.shape
    rgb = np.repeat(img[:, :, np.newaxis], 3, axis=2)
    rgb[mask] = (255, 0, 0)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())


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
        for name, least in dict(width=1, height=1, beam_period=2, beam_width=1, rng_seed=0).items():
            check_int(name, getattr(self, name), least)
        if not self.beam_width < self.beam_period:
            raise ValueError("beam_width must satisfy 1 <= beam_width < beam_period")
        if not self.noise_sigma >= 0:  # NaN fails too
            raise ValueError("noise_sigma must be non-negative")
        if not math.isfinite(self.noise_sigma):
            raise ValueError(f"noise_sigma must be finite, got {self.noise_sigma!r}")


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
