"""Binary checkpoint format.

Layout (all integers little-endian):

    magic   4 bytes  b"PDCH"
    version u32      currently 1
    count   u32      number of tensors
    per tensor:
        name_len u16, name utf-8
        rank     u8
        dims     u32 * rank
        dtype    u8   (0 = f32, 1 = f64)
        data     raw little-endian element bytes, C order

A model checkpoint (`Checkpoint`) stores every parameter and BatchNorm
running-stat buffer under its qualified name, plus two rank-1 f64 meta tensors
`meta.epoch` and `meta.val_top1`, so epoch index and best accuracy round-trip
bit-exactly through the same format.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CorruptFileError

MAGIC = b"PDCH"
VERSION = 1
_DTYPE_TAGS = {0: "<f4", 1: "<f8"}
_TAG_FOR = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


def write_tensors(path, tensors: dict[str, np.ndarray]):
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(tensors)))
        for name, arr in tensors.items():
            arr = np.ascontiguousarray(arr)
            if arr.dtype not in _TAG_FOR:
                raise CorruptFileError(f"{name}: unsupported dtype {arr.dtype}")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(struct.pack("<B", _TAG_FOR[arr.dtype]))
            fh.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())


def read_tensors(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise CorruptFileError("bad magic bytes")
    try:
        version, count = struct.unpack_from("<II", blob, 4)
        if version != VERSION:
            raise CorruptFileError(f"unsupported version {version}")
        off = 12
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, off)
            off += 2
            name = blob[off:off + name_len].decode("utf-8")
            off += name_len
            (rank,) = struct.unpack_from("<B", blob, off)
            off += 1
            dims = struct.unpack_from(f"<{rank}I", blob, off)
            off += 4 * rank
            (dtag,) = struct.unpack_from("<B", blob, off)
            off += 1
            if dtag not in _DTYPE_TAGS:
                raise CorruptFileError(f"unknown dtype tag {dtag}")
            dt, size = np.dtype(_DTYPE_TAGS[dtag]), math.prod(dims)  # ints: no wrap
            data = np.frombuffer(blob[off:off + dt.itemsize * size], dtype=dt)
            if data.size != size:
                raise CorruptFileError(f"{name}: truncated data")
            off += data.nbytes
            if name in tensors:
                raise CorruptFileError(f"{name}: tensor named twice")
            tensors[name] = data.reshape(dims).astype(dt.newbyteorder("="), copy=True)
        if off != len(blob):
            raise CorruptFileError(f"{len(blob) - off} trailing bytes")
    except struct.error as exc:
        raise CorruptFileError(f"truncated checkpoint: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CorruptFileError(f"tensor name is not UTF-8: {exc}") from exc
    except ValueError as exc:  # numpy: data cut inside an element, a rank it cannot hold
        raise CorruptFileError(f"{name}: {exc}") from exc
    return tensors


def model_state(model) -> dict[str, np.ndarray]:
    return {name: getattr(owner, attr) for name, _, owner, attr in model.state_slots()}


@dataclass
class Checkpoint:
    epoch: int
    val_top1: float
    tensors: dict

    def save(self, path):
        state = dict(self.tensors)
        state["meta.epoch"] = np.asarray([float(self.epoch)], np.float64)
        state["meta.val_top1"] = np.asarray([float(self.val_top1)], np.float64)
        write_tensors(path, state)

    @classmethod
    def load(cls, path) -> "Checkpoint":
        tensors = read_tensors(path)
        meta = []
        for name in ("meta.epoch", "meta.val_top1"):
            arr = tensors.pop(name, None)
            if arr is None or arr.size != 1 or not np.isfinite(arr).all():
                raise CorruptFileError(f"{name} must hold exactly one finite value")
            meta.append(arr.reshape(-1)[0])
        return cls(int(meta[0]), float(meta[1]), tensors)
