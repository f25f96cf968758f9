"""Matrix-backed domain types, per-band centering, and dataset I/O.

Conventions used throughout the package:

- a reflectance image is an N x L matrix (pixels are rows, bands are columns),
- endmember spectra are the columns of an L x R matrix,
- abundances are an N x R matrix whose rows live on the probability simplex.

All container types are immutable after construction (the wrapped arrays are
marked read-only) and can safely be shared across threads.  They copy what
they are given, except a float64 array that is already read-only and owns
its memory, which they share: nothing can write to it without first
switching its flag back on, so a stage can hand an image-sized matrix from
one container to the next without a second copy.
"""
from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"NLUNMIX1"

ROW_SUM_TOL = 1e-9
POSITIVITY_SLACK = -1e-12


class MatrixIOError(Exception):
    """Base class for dataset I/O failures."""


class BadMagic(MatrixIOError):
    """File does not start with the expected 8-byte tag."""


class TruncatedPayload(MatrixIOError):
    """Payload is shorter than rows * cols * 8 bytes."""


class DimensionOverflow(MatrixIOError):
    """Header dimensions are implausibly large or overflow the payload size."""


def readonly(a) -> np.ndarray:
    """``a`` as a read-only float64 array: shared if it already is one that
    owns its memory, copied otherwise."""
    if (
        isinstance(a, np.ndarray)
        and a.dtype == np.float64
        and a.flags.owndata
        and not a.flags.writeable
    ):
        return a
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class HyperImage:
    """N x L reflectance matrix plus centering state.

    ``mean_spectrum`` is present exactly when ``centered`` is true so that
    downstream spectral estimates can be shifted back to reflectance units.
    """

    pixels: np.ndarray
    centered: bool = False
    mean_spectrum: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "pixels", readonly(self.pixels))
        px = self.pixels
        if px.ndim != 2 or px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError("pixels must be a nonempty N x L matrix")
        if not np.all(np.isfinite(px)):
            raise ValueError("pixels contain non-finite entries")
        if self.centered:
            if self.mean_spectrum is None:
                raise ValueError("centered image requires mean_spectrum")
            mean = readonly(self.mean_spectrum).reshape(-1)
            if mean.shape[0] != px.shape[1]:
                raise ValueError("mean_spectrum length must equal band count")
            object.__setattr__(self, "mean_spectrum", mean)
            colsum = np.abs(px.sum(axis=0))
            if np.any(colsum >= 1e-8 * px.shape[0]):
                raise ValueError("centered image has a band with nonzero mean")
        elif self.mean_spectrum is not None:
            raise ValueError("mean_spectrum only allowed on centered images")

    @property
    def n_pixels(self) -> int:
        return self.pixels.shape[0]

    @property
    def n_bands(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True)
class EndmemberSet:
    """R pure-component spectra as columns of an L x R matrix.

    ``band_variance`` optionally carries per-band posterior variances from
    GP prediction (same L x R layout).
    """

    spectra: np.ndarray
    names: tuple[str, ...] = ()
    band_variance: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "spectra", readonly(self.spectra))
        sp = self.spectra
        if sp.ndim != 2 or sp.shape[1] < 2:
            raise ValueError("spectra must be L x R with R >= 2")
        if not np.all(np.isfinite(sp)):
            raise ValueError("spectra contain non-finite entries")
        if not self.names:
            object.__setattr__(
                self, "names", tuple(f"endmember_{r + 1}" for r in range(sp.shape[1]))
            )
        elif len(self.names) != sp.shape[1]:
            raise ValueError("need one name per endmember")
        else:
            object.__setattr__(self, "names", tuple(self.names))
        if self.band_variance is not None:
            bv = readonly(self.band_variance)
            if bv.shape != sp.shape:
                raise ValueError("band_variance shape must match spectra")
            if not np.all(np.isfinite(bv)) or np.any(bv < 0):
                raise ValueError("band_variance must be finite and >= 0")
            object.__setattr__(self, "band_variance", bv)

    @property
    def n_bands(self) -> int:
        return self.spectra.shape[0]

    @property
    def n_endmembers(self) -> int:
        return self.spectra.shape[1]


@dataclass(frozen=True)
class AbundanceMatrix:
    """N x R matrix of per-pixel fractions on the probability simplex."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", readonly(self.values))
        v = self.values
        if v.ndim != 2:
            raise ValueError("values must be an N x R matrix")
        if not np.all(np.isfinite(v)):
            raise ValueError("abundances contain non-finite entries")
        rowsum = v.sum(axis=1)
        if np.any(np.abs(rowsum - 1.0) > ROW_SUM_TOL):
            raise ValueError("abundance rows must sum to 1")
        if np.any(v < POSITIVITY_SLACK):
            raise ValueError("abundances must be nonnegative")

    @property
    def n_pixels(self) -> int:
        return self.values.shape[0]

    @property
    def n_endmembers(self) -> int:
        return self.values.shape[1]


def center(img: HyperImage) -> tuple[HyperImage, np.ndarray]:
    """Subtract the per-band mean, returning the centered image and the mean.

    The mean spectrum is stored inside the returned image so endmember
    estimates made in centered coordinates can later be shifted back.
    """
    if img.centered:
        raise ValueError("image is already centered")
    mean = img.pixels.mean(axis=0)
    pixels = img.pixels - mean
    pixels.flags.writeable = False  # handed to the new image without a copy
    return HyperImage(pixels, centered=True, mean_spectrum=mean), mean


def uncenter(img: HyperImage) -> HyperImage:
    """Invert :func:`center`."""
    if not img.centered:
        raise ValueError("image is not centered")
    return HyperImage(img.pixels + img.mean_spectrum, centered=False)


def save_matrix(matrix: np.ndarray, path, fmt: str = "binary") -> None:
    """Write a 2-D float matrix to ``path``.

    ``binary`` (canonical) layout: 8-byte tag, rows and cols as unsigned
    little-endian 64-bit integers, then row-major IEEE-754 doubles.  ``csv``
    writes a ``rows,cols`` header line followed by one comma-separated line
    per row with 17 significant digits.
    """
    m = np.ascontiguousarray(matrix, dtype="<f8")
    if m.ndim != 2:
        raise ValueError("only 2-D matrices are supported")
    rows, cols = m.shape
    if fmt == "binary":
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<QQ", rows, cols))
            fh.write(m.data)
    elif fmt == "csv":
        with open(path, "w") as fh:
            fh.write(f"{rows},{cols}\n")
            for row in m:
                fh.write(",".join(format(v, ".17g") for v in row) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by :func:`save_matrix` (binary or CSV).

    The binary format is detected by its 8-byte tag; anything else is parsed
    as CSV.  Binary round-trips are bit-exact.
    """
    with open(path, "rb") as fh:
        head = fh.read(8)
        if head == MAGIC:
            header = fh.read(16)
            if len(header) != 16:
                raise TruncatedPayload(f"{path}: header cut short")
            rows, cols = struct.unpack("<QQ", header)
            if rows == 0 or cols == 0 or rows * cols > 2**60:
                raise DimensionOverflow(f"{path}: implausible dimensions {rows}x{cols}")
            want = rows * cols * 8
            got = os.fstat(fh.fileno()).st_size - fh.tell()
            if got >= want:
                # read straight into the result, no intermediate bytes object
                out = np.empty((rows, cols), dtype="<f8")
                got = fh.readinto(out.data.cast("B"))
            if got < want:
                raise TruncatedPayload(f"{path}: expected {want} payload bytes, got {got}")
            return out
        # Binary-looking files with a wrong tag are rejected rather than fed
        # to the CSV parser.
        if len(head) == 8 and not _looks_like_csv(head):
            raise BadMagic(f"{path}: bad magic {head!r}")
    return _load_csv(path)


def _looks_like_csv(head: bytes) -> bool:
    try:
        text = head.decode("ascii")
    except UnicodeDecodeError:
        return False
    return all(c.isdigit() or c in ",.\n\r eE+-" for c in text)


def _load_csv(path) -> np.ndarray:
    with open(path) as fh:
        first = fh.readline().strip()
        try:
            rows_s, cols_s = first.split(",")
            rows, cols = int(rows_s), int(cols_s)
        except ValueError as exc:
            raise MatrixIOError(f"{path}: bad CSV header {first!r}") from exc
        if rows <= 0 or cols <= 0 or rows * cols > 2**60:
            raise DimensionOverflow(f"{path}: implausible dimensions {rows}x{cols}")
        data = np.empty((rows, cols))
        for i in range(rows):
            line = fh.readline()
            if not line:
                raise TruncatedPayload(f"{path}: expected {rows} rows, got {i}")
            parts = line.strip().split(",")
            if len(parts) != cols:
                raise MatrixIOError(f"{path}: row {i} has {len(parts)} fields")
            data[i] = [float(p) for p in parts]
    return data
