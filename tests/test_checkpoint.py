import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedfa import checkpoint


def test_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "conv0.weight": rng.standard_normal((4, 3, 3, 3)),
        "conv0.bias": np.zeros(4),
        "head.weight": rng.standard_normal((16, 5)),
    }
    path = tmp_path / "model.bin"
    checkpoint.save(path, tensors)
    back = checkpoint.load(path)
    assert list(back.keys()) == list(tensors.keys())
    for k in tensors:
        assert np.array_equal(back[k], tensors[k])
        assert back[k].dtype == np.float64


def test_encode_is_deterministic():
    t = {"a": np.arange(6, dtype=float).reshape(2, 3)}
    assert checkpoint.encode(t) == checkpoint.encode(t)


def test_header_layout():
    arr = np.array([[1.0, 2.0]])
    blob = checkpoint.encode({"w": arr})
    assert blob[:4] == b"FFA1"
    assert struct.unpack_from("<I", blob, 4)[0] == 1
    assert struct.unpack_from("<I", blob, 8)[0] == 1  # name length
    assert blob[12:13] == b"w"
    assert struct.unpack_from("<I", blob, 13)[0] == 2  # rank
    assert struct.unpack_from("<QQ", blob, 17) == (1, 2)
    assert np.frombuffer(blob, dtype="<f8", offset=33).tolist() == [1.0, 2.0]
    assert len(blob) == 33 + 16


def test_scalar_and_empty():
    blob = checkpoint.encode({"s": np.array(3.5)})
    back = checkpoint.decode(blob)
    assert back["s"].shape == ()
    assert back["s"].item() == 3.5
    assert checkpoint.decode(checkpoint.encode({})) == {}


def test_unicode_names():
    t = {"weights/émb": np.array([1.0])}
    back = checkpoint.decode(checkpoint.encode(t))
    assert np.array_equal(back["weights/émb"], [1.0])


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(
    st.text(max_size=6),  # non-ASCII names take several UTF-8 bytes
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3,
                                            min_side=0, max_side=3)),
    max_size=4))
def test_encoded_size_is_the_encoded_length(tensors):
    assert checkpoint.encoded_size(tensors) == len(checkpoint.encode(tensors))


def test_encoded_size_counts_rank_zero_and_multibyte_names():
    t = {"s": np.array(3.5), "wé/µ": np.zeros((2, 0)), "w": np.ones((2, 3)).T}
    assert checkpoint.encoded_size(t) == len(checkpoint.encode(t)) == 128


def test_bad_magic_rejected():
    with pytest.raises(ValueError, match="magic"):
        checkpoint.decode(b"NOPE" + b"\x00" * 16)


def test_bad_version_rejected():
    blob = b"FFA1" + struct.pack("<I", 99)
    with pytest.raises(ValueError, match="version"):
        checkpoint.decode(blob)


def test_non_contiguous_input_ok():
    arr = np.arange(12, dtype=float).reshape(3, 4).T  # transposed view
    back = checkpoint.decode(checkpoint.encode({"t": arr}))
    assert np.array_equal(back["t"], arr)


_ONE_TENSOR = checkpoint.encode({"w": np.array([[1.0, 2.0]])})


@pytest.mark.parametrize("cut,offset", [(6, 4), (10, 8), (14, 13), (20, 17),
                                        (len(_ONE_TENSOR) - 5, 33)])
def test_truncated_blob_names_the_offset(cut, offset):
    # cuts fall in the version, name length, rank, dims and payload fields
    with pytest.raises(ValueError, match=rf"truncated checkpoint: .* at offset {offset},"):
        checkpoint.decode(_ONE_TENSOR[:cut])
