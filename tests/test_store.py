import json
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from crossfuse import store
from crossfuse.data import DataError
from crossfuse.store import ArrayFile


def whole_body_bytes(doc: ArrayFile) -> bytes:
    """The layout as the checkpoint writer built it before it streamed: the
    whole body in one buffer, then its CRC32."""
    sections = [("meta", 0, json.dumps(doc.meta, sort_keys=True).encode())]
    for name in sorted(doc.arrays):
        arr = np.ascontiguousarray(doc.arrays[name])
        if arr.dtype not in (np.dtype(np.float64), np.dtype(np.int64)):
            arr = arr.astype(np.float64)
        code = 0 if arr.dtype == np.float64 else 1
        head = struct.pack("<BB", code, arr.ndim)
        dims = struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b""
        sections.append((name, 1, head + dims + arr.astype(["<f8", "<i8"][code]).tobytes()))
    body = bytearray(b"CFCK" + struct.pack("<I", 2) + struct.pack("<I", len(sections)))
    for name, kind, payload in sections:
        enc = name.encode()
        body += struct.pack("<I", len(enc)) + enc
        body += struct.pack("<B", kind)
        body += struct.pack("<Q", len(payload)) + payload
    return bytes(body + struct.pack("<I", zlib.crc32(bytes(body))))


def mixed_doc() -> ArrayFile:
    rng = np.random.default_rng(0)
    return ArrayFile(
        meta={"kind": "test", "nested": {"b": [1, 2.5, None], "a": "é"}, "epoch": 3},
        arrays={"z.f8": rng.normal(size=(3, 4)), "a.i8": rng.integers(-9, 9, size=7),
                "m.i4": np.arange(5, dtype=np.int32), "b.bool": np.array([True, False]),
                "empty": np.zeros((0, 3)), "scalar": np.float64(2.5),
                "strided": rng.normal(size=(4, 6))[:, ::2],
                "big-endian": np.arange(3, dtype=">f8"), "three-d": np.ones((2, 1, 3))})


class TestLayout:
    def test_bytes_equal_the_whole_body_writer(self, tmp_path):
        doc = mixed_doc()
        path = tmp_path / "x.bin"
        store.save(path, doc)
        assert path.read_bytes() == whole_body_bytes(doc)

    def test_roundtrip_converts_other_dtypes_to_float64(self, tmp_path):
        doc = mixed_doc()
        path = tmp_path / "x.bin"
        store.save(path, doc)
        back = store.load(path, "test")
        assert back.meta == doc.meta
        assert sorted(back.arrays) == sorted(doc.arrays)
        for name, arr in doc.arrays.items():
            want = np.atleast_1d(arr)
            got = back.arrays[name]
            assert got.shape == want.shape and np.array_equal(got, want), name
            assert got.dtype == (np.int64 if want.dtype == np.int64 else np.float64), name
            assert got.flags.writeable, name

    def test_empty_file_has_only_meta(self, tmp_path):
        path = tmp_path / "x.bin"
        store.save(path, ArrayFile({}))
        assert store.load(path, "test") == ArrayFile({}, {})

    def test_save_makes_no_copy_of_the_body(self, tmp_path):
        values = np.random.default_rng(0).normal(size=1 << 20)  # 8 MB
        tracemalloc.start()
        try:
            store.save(tmp_path / "x.bin", ArrayFile({"kind": "test"}, {"v": values}))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < values.nbytes // 8


class TestDamage:
    def write(self, tmp_path, body: bytes):
        path = tmp_path / "x.bin"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        return path

    @staticmethod
    def section(name: bytes, kind: int, payload: bytes, size: int | None = None) -> bytes:
        size = len(payload) if size is None else size
        return struct.pack("<I", len(name)) + name + struct.pack("<BQ", kind, size) + payload

    @staticmethod
    def array(code: int, dims, values: bytes) -> bytes:
        return struct.pack(f"<BB{len(dims)}Q", code, len(dims), *dims) + values

    @pytest.mark.parametrize("sections, count", [
        ([], 1),
        ([("meta", 0, b"{")], 1),
        ([("meta", 0, b"[1, 2]")], 1),
        ([("meta", 0, b"\xff")], 1),
        ([(b"\xff", 1, (0, (1,), bytes(8)))], 1),
        ([("a", 1, (7, (1,), bytes(8)))], 1),
        ([("a", 1, (0, (2,), bytes(8)))], 1),
        ([("a", 1, (0, (2, 2), bytes(8)))], 1),
        ([("a", 1, b"\x00")], 1),
        ([("a", 1, (0, (1,), bytes(8)))], 2),
        ([("a", 1, (0, (1,), bytes(8)))], 0),
        ([("a", 1, (0, (1,), bytes(8)), 99)], 1),
    ], ids=["missing-section", "bad-json", "meta-not-object", "meta-not-utf8",
            "name-not-utf8", "dtype-code", "short-values", "dims-too-large", "short-head",
            "count-high", "count-low", "size-past-end"])
    def test_checksummed_malformed_sections_are_data_error(self, tmp_path, sections, count):
        body = b"CFCK" + struct.pack("<II", 2, count)
        for name, kind, payload, *size in sections:
            name = name.encode() if isinstance(name, str) else name
            if isinstance(payload, tuple):
                payload = self.array(*payload)
            body += self.section(name, kind, payload, *size)
        with pytest.raises(DataError, match="malformed thing file"):
            store.load(self.write(tmp_path, body), "thing")
