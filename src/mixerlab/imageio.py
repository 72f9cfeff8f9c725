"""Bit-exact, dependency-free image and array I/O.

Images and masks travel as binary 8-bit PGM (P5) / PPM (P6); logits can be
dumped raw as little-endian float64 behind a one-line ASCII header
``mixerlab-f64 <ndim> <dim0> <dim1> ...``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError


def _read_pnm_header(data: bytes, magic: bytes):
    if not data.startswith(magic):
        raise DataError(f"expected {magic.decode()} file")
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token.isdigit():
            raise DataError(f"{magic.decode()} header field {token!r} is not a number")
        fields.append(int(token))
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    if maxval != 255:
        raise DataError(f"only 8-bit PNM supported, got maxval {maxval}")
    return width, height, pos


def _write_pnm(path: str, magic: str, arr: np.ndarray):
    """Write (H, W) or (H, W, 3) values in 0..255 as a binary PNM file."""
    if not ((arr >= 0) & (arr <= 255)).all():
        raise DataError(f"{path}: 8-bit image values must lie in 0..255")
    header = f"{magic}\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode()
    with open(path, "wb") as fh:
        fh.write(header + arr.astype(np.uint8).tobytes())


def write_pgm(path: str, image: np.ndarray):
    """Write a (H, W) array of values in 0..255 as binary PGM."""
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise DataError("PGM wants a 2D array")
    _write_pnm(path, "P5", arr)


def _read_pnm(path: str, magic: bytes, channels: int) -> np.ndarray:
    """The (H, W, channels) bytes of a binary PNM file."""
    with open(path, "rb") as fh:
        data = fh.read()
    width, height, pos = _read_pnm_header(data, magic)
    size = channels * width * height
    body = data[pos : pos + size]
    if len(body) != size:
        raise DataError(f"{path}: truncated {'PGM' if channels == 1 else 'PPM'} body")
    return np.frombuffer(body, dtype=np.uint8).reshape(height, width, channels)


def read_pgm(path: str) -> np.ndarray:
    return _read_pnm(path, b"P5", 1)[:, :, 0].copy()


def write_ppm(path: str, image: np.ndarray):
    """Write a (3, H, W) array of values in 0..255 as binary PPM."""
    arr = np.asarray(image)
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise DataError("PPM wants a (3, H, W) array")
    _write_pnm(path, "P6", arr.transpose(1, 2, 0))


def read_ppm(path: str) -> np.ndarray:
    return _read_pnm(path, b"P6", 3).transpose(2, 0, 1).copy()


def read_image_as_float(path: str) -> np.ndarray:
    """Load PGM or PPM into a (3, H, W) float array scaled to [0, 1];
    grayscale is replicated across the three channels."""
    with open(path, "rb") as fh:
        magic = fh.read(2)
    if magic == b"P5":
        gray = read_pgm(path).astype(np.float64) / 255.0
        return np.repeat(gray[None], 3, axis=0)
    if magic == b"P6":
        return read_ppm(path).astype(np.float64) / 255.0
    raise DataError(f"{path}: unsupported image format {magic!r} (PGM/PPM only)")


def write_raw_f64(path: str, arr: np.ndarray):
    arr = np.asarray(arr, dtype=np.float64)
    header = "mixerlab-f64 " + " ".join([str(arr.ndim)] + [str(d) for d in arr.shape]) + "\n"
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.write(np.ascontiguousarray(arr).astype("<f8").tobytes())


def read_raw_f64(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        parts = fh.readline().split()
        body = fh.read()
    if not parts or parts[0] != b"mixerlab-f64":
        raise DataError(f"{path}: not a mixerlab raw float dump")
    fields = parts[1:]
    if not fields or not all(f.isdigit() for f in fields) or int(fields[0]) != len(fields) - 1:
        raise DataError(f"{path}: raw float dump header must be `mixerlab-f64 <ndim> <dims...>`")
    shape = tuple(int(f) for f in fields[1:])
    if len(body) != 8 * math.prod(shape):
        raise DataError(f"{path}: truncated raw float dump")
    return np.frombuffer(body, dtype="<f8").astype(np.float64).reshape(shape)
