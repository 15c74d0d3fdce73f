"""The checksummed container of graph files, matrix files and checkpoints:
magic and version, a section count, length-prefixed named sections (JSON
metadata, then arrays in name order), and a CRC32 of everything before it."""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import DataError

MAGIC = b"CFCK"
VERSION = 2

_DTYPES = {0: "<f8", 1: "<i8"}
_DTYPE_CODES = {np.dtype(np.float64): 0, np.dtype(np.int64): 1}


@dataclass
class ArrayFile:
    """A JSON-able metadata dict plus named arrays.  Arrays of any dtype but
    float64 and int64 are stored as float64."""

    meta: dict
    arrays: dict[str, np.ndarray] = field(default_factory=dict)


def _section_head(name: str, kind: int, size: int) -> bytes:
    enc = name.encode()
    return struct.pack("<I", len(enc)) + enc + struct.pack("<BQ", kind, size)


def save(path: str | Path, doc: ArrayFile) -> None:
    """Write ``doc``, each part to the file as it is made, updating the
    checksum with it: no copy of the whole body is made."""
    meta = json.dumps(doc.meta, sort_keys=True).encode()
    crc = 0
    with open(path, "wb") as fh:
        def put(part) -> None:
            nonlocal crc
            fh.write(part)
            crc = zlib.crc32(part, crc)

        put(MAGIC + struct.pack("<II", VERSION, 1 + len(doc.arrays)))
        put(_section_head("meta", 0, len(meta)) + meta)
        for name in sorted(doc.arrays):
            arr = np.ascontiguousarray(doc.arrays[name])
            if arr.dtype not in _DTYPE_CODES:
                arr = arr.astype(np.float64)
            code = _DTYPE_CODES[arr.dtype]
            values = np.ascontiguousarray(arr, dtype=_DTYPES[code]).reshape(-1).view(np.uint8)
            head = struct.pack(f"<BB{arr.ndim}Q", code, arr.ndim, *arr.shape)
            put(_section_head(name, 1, len(head) + len(values)) + head)
            put(values)
        fh.write(struct.pack("<I", crc))


def load(path: str | Path, what: str) -> ArrayFile:
    """Read a file that :func:`save` wrote; ``what`` names the kind of file
    in error messages.  A wrong magic or version, a checksum mismatch, or
    sections that do not parse and fill the body exactly is a
    :class:`DataError`."""
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise DataError(f"{path}: not a {what} file")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != VERSION:
        raise DataError(f"{path}: {what} format version {version}, expected {VERSION}")
    body = memoryview(raw)[:-4]
    if zlib.crc32(body) != struct.unpack_from("<I", raw, len(body))[0]:
        raise DataError(f"{path}: checksum mismatch, file is corrupt")
    meta, arrays = {}, {}
    try:
        (count,) = struct.unpack_from("<I", body, 8)
        off = 12
        for _ in range(count):
            (name_len,) = struct.unpack_from("<I", body, off)
            name = str(body[off + 4:off + 4 + name_len], "utf-8")
            kind, size = struct.unpack_from("<BQ", body, off + 4 + name_len)
            off += 13 + name_len
            payload = body[off:off + size]
            off += size
            if kind == 0:
                meta = json.loads(bytes(payload))
            else:
                code, ndim = struct.unpack_from("<BB", payload, 0)
                dims = struct.unpack_from(f"<{ndim}Q", payload, 2)
                data = np.frombuffer(payload, dtype=_DTYPES[code], offset=2 + 8 * ndim)
                arrays[name] = data.reshape(dims).copy()
        if off != len(body) or not isinstance(meta, dict):
            raise ValueError("sections do not fill the file with one metadata object")
    except (struct.error, KeyError, ValueError) as exc:
        raise DataError(f"{path}: malformed {what} file ({exc})") from exc
    return ArrayFile(meta, arrays)
