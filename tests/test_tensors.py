import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainsim.fixedpoint import FixedFormat
from chainsim.tensors import FORMAT_VERSION, MAGIC, SampleTensor, ShapeError


def test_payload_length_checked():
    with pytest.raises(ShapeError):
        SampleTensor((2, 3), [1, 2, 3])


def test_sample_range_checked():
    with pytest.raises(ValueError):
        SampleTensor((1,), [70000])


def test_indexing_row_major():
    t = SampleTensor((2, 3), [0, 1, 2, 3, 4, 5])
    assert t.at(0, 2) == 2
    assert t.at(1, 0) == 3
    with pytest.raises(ShapeError) as err:
        t.at(0, 3)
    assert "axis 1" in str(err.value)


def test_dump_rejects_samples_wider_than_int16(tmp_path):
    # the dump stores int16, so a wider format is refused even when every
    # value would fit, and no file is left behind
    t = SampleTensor((2,), [1, -1], FixedFormat(total_bits=20, accumulator_bits=40))
    with pytest.raises(ValueError, match="16-bit"):
        t.dump_bytes()
    with pytest.raises(ValueError, match="16-bit"):
        t.dump(tmp_path / "wide.cnnt")
    assert not (tmp_path / "wide.cnnt").exists()


def test_immutability():
    t = SampleTensor((2,), [1, 2])
    with pytest.raises(AttributeError):
        t.payload = (9, 9)


@given(st.lists(st.integers(1, 5), min_size=1, max_size=4), st.integers(0, 2 ** 31))
def test_dump_load_round_trip(dims, seed):
    import random
    r = random.Random(seed)
    size = 1
    for d in dims:
        size *= d
    t = SampleTensor(dims, [r.randint(-32768, 32767) for _ in range(size)])
    blob = t.dump_bytes()
    assert blob[:4] == MAGIC
    assert len(blob) == 16 + 2 * size
    back = SampleTensor.load_bytes(blob)
    assert back == t and back.dims == t.dims


def test_load_rejects_bad_magic_and_version():
    t = SampleTensor((2,), [1, 2])
    blob = bytearray(t.dump_bytes())
    with pytest.raises(ValueError):
        SampleTensor.load_bytes(b"XXXX" + bytes(blob[4:]))
    blob[4] = FORMAT_VERSION + 1
    with pytest.raises(ValueError):
        SampleTensor.load_bytes(bytes(blob))


def test_load_rejects_truncated_payload():
    blob = SampleTensor((2, 3), [1, 2, 3, 4, 5, 6]).dump_bytes()
    with pytest.raises(ValueError) as err:
        SampleTensor.load_bytes(blob[:-3])
    assert "expected 12" in str(err.value) and "got 9" in str(err.value)


def test_load_rejects_trailing_bytes():
    blob = SampleTensor((2, 3), [1, 2, 3, 4, 5, 6]).dump_bytes()
    with pytest.raises(ValueError) as err:
        SampleTensor.load_bytes(blob + b"\0\0")
    assert "expected 12" in str(err.value) and "got 14" in str(err.value)


def test_file_round_trip(tmp_path):
    t = SampleTensor((2, 2, 2, 2), list(range(16)))
    path = tmp_path / "t.cnnt"
    t.dump(path)
    assert SampleTensor.load(path) == t


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_load_bytes_fuzz_raises_or_round_trips(data):
    # half the blobs are raw bytes; the others carry a header with small
    # fields so that the loader's deeper checks are reached too
    if data.draw(st.booleans()):
        blob = data.draw(st.binary(max_size=48))
    else:
        version = data.draw(st.sampled_from([FORMAT_VERSION, FORMAT_VERSION + 1]))
        rank = data.draw(st.integers(0, 5))
        dims = data.draw(st.lists(st.integers(0, 3), min_size=4, max_size=4))
        size = math.prod(dims[:rank])
        body = data.draw(st.one_of(st.binary(min_size=2 * size, max_size=2 * size),
                                   st.binary(max_size=48)))
        blob = struct.pack("<4sHHHHHH", MAGIC, version, rank, *dims) + body
    try:
        t = SampleTensor.load_bytes(blob)
    except ValueError:
        return
    assert t.dump_bytes() == blob
