import csv
import struct

import numpy as np
import pytest

from kronsolve.errors import TensorFormatError
from kronsolve.tensor_io import (format_cell, read_tensor, write_results_csv,
                                 write_tensor)


class TestTensorFormat:
    def test_roundtrip_bitwise(self, rng, tmp_path):
        for shape in [(1,), (4,), (2, 3), (3, 2, 4, 2)]:
            x = rng.standard_normal(shape)
            path = tmp_path / "x.ktn"
            write_tensor(path, x)
            back = read_tensor(path)
            assert back.shape == x.shape
            assert np.array_equal(back, x)
            assert back.dtype == np.float64

    def test_exact_byte_layout(self, rng, tmp_path):
        # magic + version + order + 2 dims + 6 payload doubles = 73 bytes
        x = rng.standard_normal((2, 3))
        path = tmp_path / "x.ktn"
        write_tensor(path, x)
        raw = path.read_bytes()
        assert len(raw) == 4 + 4 + 1 + 2 * 8 + 6 * 8 == 73
        assert raw[:4] == b"KTN1"
        assert struct.unpack_from("<I", raw, 4)[0] == 1
        assert raw[8] == 2
        assert struct.unpack_from("<QQ", raw, 9) == (2, 3)
        np.testing.assert_array_equal(
            np.frombuffer(raw, dtype="<f8", offset=25).reshape(2, 3), x)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ktn"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(TensorFormatError) as err:
            read_tensor(path)
        assert err.value.code == "bad-magic"

    def test_bad_version(self, rng, tmp_path):
        path = tmp_path / "x.ktn"
        write_tensor(path, rng.standard_normal((2, 2)))
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(TensorFormatError) as err:
            read_tensor(path)
        assert err.value.code == "bad-version"

    def test_truncated(self, rng, tmp_path):
        path = tmp_path / "x.ktn"
        write_tensor(path, rng.standard_normal((2, 2)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(TensorFormatError) as err:
            read_tensor(path)
        assert err.value.code == "truncated"

    def test_dimension_overflow(self, tmp_path):
        path = tmp_path / "x.ktn"
        header = b"KTN1" + struct.pack("<I", 1) + struct.pack("<B", 2)
        header += struct.pack("<QQ", 2**40, 2**40)
        path.write_bytes(header)
        with pytest.raises(TensorFormatError) as err:
            read_tensor(path)
        assert err.value.code == "dim-overflow"


class TestCsv:
    def test_results_numeric_roundtrip(self, rng, tmp_path):
        # every emitted numeric parses back exactly (17 significant digits)
        values = list(rng.standard_normal(50)) + [1e-300, 1e300, 1.0 / 3.0]
        path = tmp_path / "r.csv"
        write_results_csv(path, ["value"], [(v,) for v in values])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["value"]
        parsed = [float(r[0]) for r in rows[1:]]
        for got, want in zip(parsed, values):
            assert got == want  # 17 digits round-trip float64 exactly

    def test_float32_cell_has_17_digits(self):
        text = format_cell(np.float32(0.1))
        assert text == "0.10000000149011612"
        assert float(text) == float(np.float32(0.1))

    def test_header_and_separator(self, tmp_path):
        path = tmp_path / "r.csv"
        write_results_csv(path, ["a", "b"], [(1.5, "x")])
        text = path.read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1].startswith("1.5,")
        assert "." in lines[1].split(",")[0]
