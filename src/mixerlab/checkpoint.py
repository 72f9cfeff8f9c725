"""Flat, versioned binary checkpoint container.

Layout (all integers little-endian):

    magic   4 bytes  b"MXLC"
    version u32      currently 1
    cfg_len u64      byte length of the UTF-8 model-config INI text
    cfg     bytes    ModelConfig.to_ini() text
    count   u64      number of named arrays
    per array:
        name_len u16, name UTF-8 bytes
        ndim     u8,  dims ndim x u32
        data     float64 little-endian, row-major

Array names are the model's stable parameter names (for example
``stage2.block4.mlp.fc1.weight`` or ``stage3.pos_emb``), which is what
makes warm starting across checkpoints possible. They are the names under
which ``MetaFormer`` creates each parameter, and ``load_model`` builds the
model from the arrays directly, with no random draw.

Both directions hold the weights once. ``save_model`` hands ``save_arrays``
the parameters' own arrays, and a float64 array's bytes are written from
it with no snapshot and no copy. ``load_arrays`` reads each array straight
into a fresh float64 buffer, which the model adopts as the parameter's storage.
"""

from __future__ import annotations

import math
import os
import struct
from collections import OrderedDict

import numpy as np

from .errors import ConfigError, DataError
from .metaformer import MetaFormer, ModelConfig

MAGIC = b"MXLC"
VERSION = 1


def save_arrays(path: str, config_text: str, arrays: dict[str, np.ndarray]):
    cfg = config_text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(cfg)))
        fh.write(cfg)
        fh.write(struct.pack("<Q", len(arrays)))
        for name, arr in arrays.items():
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            arr = np.asarray(arr, dtype=np.float64)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))


def load_arrays(path: str) -> tuple[str, "OrderedDict[str, np.ndarray]"]:
    """Config text and named arrays. A truncated or malformed file (a repeated
    name, bytes after the last array) or a non-finite array is a DataError;
    each length is checked against the bytes left in the file before reading."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n: int, shape: tuple | None = None):
            """``n`` bytes, or with ``shape`` a fresh float64 array read in place."""
            if n > size - fh.tell():
                raise DataError(f"{path}: truncated checkpoint")
            if shape is None:
                return fh.read(n)
            arr = np.empty(shape, "<f8")
            if fh.readinto(arr) != n:
                raise DataError(f"{path}: truncated checkpoint")
            return arr.astype(np.float64, copy=False)

        def unpack(fmt: str) -> tuple:
            return struct.unpack(fmt, read(struct.calcsize(fmt)))

        if read(4) != MAGIC:
            raise DataError(f"{path}: not a mixerlab checkpoint (bad magic)")
        (version,) = unpack("<I")
        if version != VERSION:
            raise DataError(f"{path}: unsupported checkpoint version {version}")
        try:
            config_text = read(unpack("<Q")[0]).decode("utf-8")
            arrays: OrderedDict[str, np.ndarray] = OrderedDict()
            for _ in range(unpack("<Q")[0]):
                name = read(unpack("<H")[0]).decode("utf-8")
                if name in arrays:
                    raise DataError(f"{path}: array {name!r} repeats")
                shape = unpack(f"<{unpack('<B')[0]}I")
                arrays[name] = read(8 * math.prod(shape), shape)
                if not np.isfinite(arrays[name]).all():
                    raise DataError(f"{path}: array {name!r} has non-finite values")
        except UnicodeDecodeError:
            raise DataError(f"{path}: checkpoint text is not UTF-8") from None
        if fh.tell() != size:
            raise DataError(f"{path}: {size - fh.tell()} bytes after the last array")
        return config_text, arrays


def save_model(path: str, model: MetaFormer):
    save_arrays(path, model.config.to_ini(), {n: t.data for n, t in model.named_parameters().items()})


def load_model(path: str) -> MetaFormer:
    config_text, arrays = load_arrays(path)
    try:
        config = ModelConfig.from_ini(config_text)
    except ConfigError as exc:
        raise DataError(f"{path}: bad model config: {exc}") from None
    return MetaFormer(config, arrays=arrays)
