"""Binary weights container: round-trips and strict validation."""

import io
import struct

import numpy as np
import pytest

from helpers import traced_peak
from tkfnet.model import TKFNet, model_config
from tkfnet.tensor import ShapeError
from tkfnet.weights import (
    MAGIC,
    VERSION,
    WeightsFormatError,
    _parse,
    deserialize_weights,
    read_tensor,
    read_weights,
    serialize_weights,
    write_tensor,
    write_weights,
)


def u32(value):
    return struct.pack("<I", value)


def record(name, arr):
    encoded = name.encode("utf-8")
    parts = [u32(len(encoded)), encoded, u32(arr.ndim)]
    parts += [u32(d) for d in arr.shape]
    parts.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return b"".join(parts)


def container(records, version=VERSION, magic=MAGIC):
    return magic + u32(version) + u32(len(records)) + b"".join(records)


class TestRoundTrip:
    def test_bit_exact_payload(self):
        rng = np.random.default_rng(0)
        arrays = {
            "a.weight": rng.normal(size=(3, 3, 2, 4)).astype(np.float32),
            "a.bias": rng.normal(size=(1, 1, 1, 4)).astype(np.float32),
        }
        out = deserialize_weights(serialize_weights(arrays))
        assert list(out) == ["a.weight", "a.bias"]
        for name in arrays:
            assert out[name].tobytes() == arrays[name].tobytes()
            assert out[name].dtype == np.float32

    def test_special_values_survive(self):
        # Negative zero, subnormals and extremes must pass through untouched.
        vals = np.array(
            [-0.0, np.finfo(np.float32).tiny / 2, np.finfo(np.float32).max, -1e-30],
            dtype=np.float32,
        ).reshape(1, 1, 1, 4)
        out = deserialize_weights(serialize_weights({"t": vals}))
        assert out["t"].tobytes() == vals.tobytes()

    def test_file_roundtrip(self, tmp_path):
        arrays = {"x": np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2)}
        path = tmp_path / "w.tkfw"
        write_weights(path, arrays)
        out = read_weights(path)
        assert out["x"].tobytes() == arrays["x"].tobytes()

    def test_insertion_order_preserved(self):
        arrays = {f"p{i}": np.zeros((1, 1, 1, 1), dtype=np.float32) for i in range(6)}
        assert list(deserialize_weights(serialize_weights(arrays))) == list(arrays)

    def test_arrays_are_owned_and_writable(self):
        arr = np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2)
        for data in (serialize_weights({"t": arr}), bytearray(serialize_weights({"t": arr}))):
            out = deserialize_weights(data)["t"]
            assert out.flags.owndata and out.flags.writeable
            out += 1
            np.testing.assert_array_equal(out, arr + 1)

    def test_empty_container(self):
        assert deserialize_weights(serialize_weights({})) == {}


class TestModelStateRoundTrip:
    @pytest.mark.parametrize("preset", ["small", "base"])
    def test_every_parameter_bit_exact(self, preset, tmp_path):
        model = TKFNet(model_config(preset, 7), seed=3)
        path = tmp_path / "model.tkfw"
        write_weights(path, model.state_arrays())
        restored = read_weights(path)
        for p in model.parameters():
            assert restored[p.name].tobytes() == p.data.astype(np.float32).tobytes()

    def test_load_state_restores_forward_pass(self, tmp_path):
        from tkfnet.tensor import Tensor

        model = TKFNet(model_config("small", 5), seed=1)
        x = Tensor(np.random.default_rng(2).uniform(size=(1, 16, 16, 3)).astype(np.float32))
        want = model(x).data.copy()

        path = tmp_path / "model.tkfw"
        write_weights(path, model.state_arrays())
        other = TKFNet(model_config("small", 5), seed=99)
        other.load_state(read_weights(path))
        np.testing.assert_array_equal(other(x).data, want)

    def test_load_state_rejects_missing_and_extra(self):
        model = TKFNet(model_config("small", 3), seed=0)
        state = model.state_arrays()
        state.pop("dcif.head.bias")
        state["bogus"] = np.zeros((1, 1, 1, 1), dtype=np.float32)
        with pytest.raises(ShapeError, match="dcif.head.bias"):
            model.load_state(state)

    def test_load_state_rejects_shape_mismatch(self):
        model = TKFNet(model_config("small", 3), seed=0)
        state = model.state_arrays()
        state["dcif.head.weight"] = np.zeros((1, 1, 16, 9), dtype=np.float32)
        with pytest.raises(ShapeError, match="dcif.head.weight"):
            model.load_state(state)


class TestStrictParsing:
    def test_bad_magic(self):
        data = container([], magic=b"NOPE")
        with pytest.raises(WeightsFormatError, match="bad magic b'NOPE' at byte 0"):
            deserialize_weights(data)

    def test_unsupported_version(self):
        data = container([], version=2)
        with pytest.raises(WeightsFormatError, match="version 2"):
            deserialize_weights(data)

    def test_truncated_header(self):
        with pytest.raises(WeightsFormatError, match="truncated"):
            deserialize_weights(MAGIC + u32(VERSION)[:2])

    def test_truncated_payload_reports_offset(self):
        arr = np.zeros((1, 1, 1, 4), dtype=np.float32)
        data = container([record("t", arr)])
        with pytest.raises(WeightsFormatError, match="payload of 't'"):
            deserialize_weights(data[:-3])

    def test_trailing_bytes_rejected(self):
        arr = np.zeros((1, 1, 1, 1), dtype=np.float32)
        data = container([record("t", arr)]) + b"\x00"
        with pytest.raises(WeightsFormatError, match="trailing"):
            deserialize_weights(data)

    def test_duplicate_names_rejected(self):
        arr = np.zeros((1, 1, 1, 1), dtype=np.float32)
        data = container([record("t", arr), record("t", arr)])
        with pytest.raises(WeightsFormatError, match="duplicate"):
            deserialize_weights(data)

    def test_empty_name_rejected(self):
        arr = np.zeros((1, 1, 1, 1), dtype=np.float32)
        data = container([record("x", arr)])
        data = data.replace(u32(1) + b"x", u32(0), 1)
        with pytest.raises(WeightsFormatError, match="empty tensor name"):
            deserialize_weights(data)

    def test_wrong_rank_rejected(self):
        bad = u32(1) + b"t" + u32(3) + u32(1) * 3 + b"\x00" * 4
        with pytest.raises(WeightsFormatError, match="rank 3"):
            deserialize_weights(MAGIC + u32(VERSION) + u32(1) + bad)

    def test_zero_dimension_rejected(self):
        bad = u32(1) + b"t" + u32(4) + u32(1) + u32(0) + u32(1) + u32(1)
        with pytest.raises(WeightsFormatError, match="zero dimension"):
            deserialize_weights(MAGIC + u32(VERSION) + u32(1) + bad)

    @pytest.mark.parametrize(
        "dims", [(65536,) * 4, (2**31, 2**31, 4, 1)], ids=["65536x4", "2^31x2^31x4x1"]
    )
    def test_overflowing_dims_are_truncation(self, dims):
        # The element count wraps to 0 in int64; the reader must still see
        # that the payload is missing.
        bad = u32(1) + b"t" + u32(4) + b"".join(u32(d) for d in dims)
        with pytest.raises(WeightsFormatError, match="truncated payload of 't' at byte 37"):
            deserialize_weights(MAGIC + u32(VERSION) + u32(1) + bad)

    def test_undecodable_name_rejected(self):
        bad = u32(2) + b"\xff\xfe" + u32(4) + u32(1) * 4 + b"\x00" * 4
        with pytest.raises(WeightsFormatError, match="undecodable"):
            deserialize_weights(MAGIC + u32(VERSION) + u32(1) + bad)

    def test_missing_file_wrapped(self, tmp_path):
        with pytest.raises(WeightsFormatError, match="cannot read"):
            read_weights(tmp_path / "absent.tkfw")


def huge_dims_container(dims):
    bad = u32(1) + b"t" + u32(4) + b"".join(u32(d) for d in dims)
    return MAGIC + u32(VERSION) + u32(1) + bad


# (id, container bytes) of files the reader must refuse.
MALFORMED = [
    ("truncated-payload", container([record("t", np.ones((1, 2, 2, 3), dtype=np.float32))])[:-5]),
    ("truncated-header", container([record("t", np.ones((1, 1, 1, 1), dtype=np.float32))])[:19]),
    ("trailing-byte", container([record("t", np.ones((1, 1, 1, 2), dtype=np.float32))]) + b"\x00"),
    ("huge-dims", huge_dims_container((65536,) * 4)),
    ("allocatable-dims", huge_dims_container((1024, 1024, 16, 1))),
]


class TestReadFromDisk:
    def test_holds_one_copy_of_the_payload(self, tmp_path):
        # Each payload is read straight into its array: no whole-file buffer
        # and no second copy per record.
        path = tmp_path / "base.tkfw"
        write_weights(path, TKFNet(model_config("base", 7), seed=0).state_arrays())
        size = path.stat().st_size
        assert traced_peak(lambda: read_weights(path)) < 1.25 * size

    @pytest.mark.parametrize("data", [d for _, d in MALFORMED], ids=[i for i, _ in MALFORMED])
    def test_malformed_files_fail_as_the_bytes_do(self, data, tmp_path):
        path = tmp_path / "bad.tkfw"
        path.write_bytes(data)
        with pytest.raises(WeightsFormatError) as from_bytes:
            deserialize_weights(data)
        with pytest.raises(WeightsFormatError) as from_file:
            read_weights(path)
        assert str(from_file.value) == str(from_bytes.value)

    @pytest.mark.parametrize("dims", [(65536,) * 4, (1024, 1024, 16, 1)], ids=["2^64", "64MiB"])
    def test_crafted_dims_allocate_no_payload(self, dims, tmp_path):
        # The size check runs before the payload's array is allocated.
        path = tmp_path / "huge.tkfw"
        path.write_bytes(huge_dims_container(dims))

        def read():
            with pytest.raises(WeightsFormatError, match="truncated payload of 't' at byte 37"):
                read_weights(path)

        assert traced_peak(read) < 64 << 10

    def test_file_that_shrinks_mid_read_is_truncated(self):
        class ShrinksOnFirstPayload(io.BytesIO):
            shrunk = False

            def readinto(self, buffer):
                if not self.shrunk:
                    self.shrunk = True
                    self.truncate(self.tell() + 2)
                return super().readinto(buffer)

        data = container([record("t", np.ones((1, 1, 1, 4), dtype=np.float32))])
        with pytest.raises(WeightsFormatError,
                           match="truncated payload of 't' at byte 37: need 16 bytes, have 2"):
            _parse(ShrinksOnFirstPayload(data))


class TestSerializeValidation:
    def test_rank_enforced(self):
        with pytest.raises(ValueError, match="rank 4"):
            serialize_weights({"t": np.zeros((2, 2), dtype=np.float32)})

    def test_empty_name_refused(self):
        with pytest.raises(ValueError, match="non-empty"):
            serialize_weights({"": np.zeros((1, 1, 1, 1), dtype=np.float32)})


class TestSingleTensorFiles:
    def test_roundtrip(self, tmp_path):
        arr = np.random.default_rng(4).normal(size=(1, 3, 3, 3)).astype(np.float32)
        path = tmp_path / "t.rt32"
        write_tensor(path, arr)
        np.testing.assert_array_equal(read_tensor(path), arr)

    def test_multi_record_file_rejected(self, tmp_path):
        path = tmp_path / "two.rt32"
        write_weights(
            path,
            {
                "a": np.zeros((1, 1, 1, 1), dtype=np.float32),
                "b": np.zeros((1, 1, 1, 1), dtype=np.float32),
            },
        )
        with pytest.raises(WeightsFormatError, match="exactly one"):
            read_tensor(path)
