"""Property tests: the file parsers accept or reject any byte string cleanly.

Every input to the weights, PPM and config parsers either parses or raises
the parser's documented error type, never anything else. Examples are drawn
from a fixed seed with no deadline, so the suite stays deterministic and free
of timing gates.
"""

import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tkfnet.cli import CONFIG_PARSERS, CliError, _parse_config_file
from tkfnet.data import DataError, decode_ppm
from tkfnet.weights import MAGIC, VERSION, WeightsFormatError, deserialize_weights, serialize_weights

FIXED = settings(deadline=None, derandomize=True, database=None, max_examples=300)


def mostly(valid, *invalid):
    """Draw ``valid`` three times in four, else one of ``invalid``."""
    return st.sampled_from([valid] * 3 * len(invalid) + list(invalid))


def finish(draw, data):
    """Keep, cut short or extend the well-formed bytes."""
    ending = draw(st.sampled_from(["keep", "cut", "extend"]))
    if ending == "cut":
        return data[: draw(st.integers(0, max(len(data) - 1, 0)))]
    if ending == "extend":
        return data + draw(st.binary(min_size=1, max_size=3))
    return data


@st.composite
def weights_like(draw):
    """Containers built field by field, each field usually valid, so parsing
    gets past the prologue and reaches every record check."""
    parts = [draw(mostly(MAGIC, b"TKFX")), struct.pack("<I", draw(mostly(VERSION, 2)))]
    records = draw(st.integers(0, 3))
    parts.append(struct.pack("<I", draw(mostly(records, records + 1))))
    for _ in range(records):
        name = draw(st.one_of(st.text("ab.", min_size=1, max_size=3).map(str.encode), st.binary(max_size=3)))
        parts.append(struct.pack("<I", draw(mostly(len(name), len(name) + 1))) + name)
        dims = [draw(st.one_of(st.integers(1, 3), st.sampled_from([0, 65536, 2**31, 2**32 - 1])))
                for _ in range(4)]
        parts.append(struct.pack("<5I", draw(mostly(4, 3)), *dims))
        size = 4 * math.prod(dims)
        parts.append(draw(st.binary(min_size=size, max_size=size)) if size <= 400 else b"")
    return finish(draw, b"".join(parts))


def parses_or_raises(parse, data, error):
    try:
        return parse(data)
    except error:
        return None


@FIXED
@given(st.one_of(st.binary(max_size=96), weights_like()))
def test_weights_parse_or_raise_format_error(data):
    arrays = parses_or_raises(deserialize_weights, data, WeightsFormatError)
    if arrays is not None:
        # Whatever parses re-serializes to the same bytes.
        assert serialize_weights(arrays) == data
        assert all(a.dtype == np.float32 and a.ndim == 4 for a in arrays.values())


@st.composite
def ppm_like(draw):
    """P6 files built token by token, each token usually valid, with
    whitespace and comments between them."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    tokens = [
        draw(mostly(b"P6", b"P5", b"p6", b"")),
        draw(mostly(b"%d" % width, b"0", b"-1", b"0x1", b"99999999999")),
        draw(mostly(b"%d" % height, b"0", b"", b"2.5")),
        draw(mostly(b"255", b"256", b"65535", b"")),
    ]
    sep = mostly(b"\n", b" ", b"\t", b"\r", b"#c\n", b"", b"# open")
    header = b"".join(token + draw(sep) for token in tokens)
    return finish(draw, header + draw(st.binary(min_size=width * height * 3, max_size=width * height * 3)))


@FIXED
@given(st.one_of(st.binary(max_size=64), ppm_like()))
def test_ppm_decode_or_raise_data_error(data):
    image = parses_or_raises(decode_ppm, data, DataError)
    if image is not None:
        _, h, w, c = image.shape
        assert c == 3 and h >= 1 and w >= 1
        assert 0.0 <= image.data.min() and image.data.max() <= 1.0


# One value each key's parser accepts, and values that some parsers reject.
CONFIG_VALID = {
    "model": "small", "epochs": "2", "batch_size": "4", "lr_init": "0.01",
    "lr_end": "0", "seed": "-7",
    "input_size": "16", "data": "synth:3x4x16", "out": "runs/a b",
}
CONFIG_INVALID = ["", "x", "-3", "1e999", "nan", "1.5", "0"]


@st.composite
def config_like(draw):
    """Config files built line by line, each part usually valid: known keys,
    '=' separators, accepted values, comments and blank lines."""
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        key = draw(mostly(draw(st.sampled_from(sorted(CONFIG_VALID))), "learning_rate", "mo del"))
        value = draw(st.one_of(mostly(CONFIG_VALID.get(key, "1"), *CONFIG_INVALID), st.text(max_size=3)))
        sep = draw(mostly(" = ", "=", ":"))
        comment = draw(mostly("", " # note", "#=", "\n"))
        lines.append(f"{key}{sep}{value}{comment}")
    return finish(draw, "\n".join(lines).encode())


@FIXED
@given(st.one_of(st.binary(max_size=64), config_like()))
def test_config_parse_or_raise_config_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "property.cfg"
    path.write_bytes(data)
    try:
        values = _parse_config_file(path)
    except CliError as exc:
        assert exc.category == "CONFIG"
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            assert str(path) in str(exc)
    else:
        assert set(values) <= set(CONFIG_PARSERS)
