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


TENSOR_DICTS = st.dictionaries(
    st.text(max_size=6),  # non-ASCII names take several UTF-8 bytes
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3,
                                            min_side=0, max_side=3)),
    max_size=4)


@settings(max_examples=60, deadline=None)
@given(TENSOR_DICTS)
def test_round_trip_is_bit_exact(tensors):
    # NaN payloads and signed zeros included
    back = checkpoint.decode(checkpoint.encode(tensors))
    assert list(back) == list(tensors)
    for name, a in tensors.items():
        assert back[name].dtype == np.float64
        assert back[name].shape == a.shape
        assert back[name].tobytes() == a.tobytes()


def _decodes_or_raises_value_error(blob: bytes) -> None:
    try:
        checkpoint.decode(blob)
    except ValueError:
        pass


@settings(max_examples=40, deadline=None)
@given(TENSOR_DICTS, st.integers(1, 255))
def test_damaged_blob_decodes_or_raises_value_error(tensors, flip):
    # every truncation, and every byte XORed with flip; any other
    # exception type fails the test
    blob = checkpoint.encode(tensors)
    for cut in range(len(blob)):
        _decodes_or_raises_value_error(blob[:cut])
    for i in range(len(blob)):
        _decodes_or_raises_value_error(
            blob[:i] + bytes([blob[i] ^ flip]) + blob[i + 1:])


def test_repeated_tensor_names_its_offset():
    one = checkpoint.encode({"w": np.array([1.0])})
    twice = one + one[8:]  # a second record of 'w', whose name follows its length
    with pytest.raises(ValueError,
                       match=rf"^repeated tensor 'w' at offset {len(one) + 4}$"):
        checkpoint.decode(twice)


def test_non_utf8_name_names_its_offset():
    blob = bytearray(checkpoint.encode({"wé": np.array([1.0])}))
    blob[13] = 0xFF  # the first byte of 'é', whose name starts at offset 12
    with pytest.raises(ValueError, match=r"^tensor name at offset 12 is not "
                                         r"UTF-8: invalid start byte at its byte 1$"):
        checkpoint.decode(bytes(blob))


def test_unbuildable_shape_names_its_tensor_and_offset():
    # an empty tensor's payload is empty whatever its other dims, so no
    # truncation check bounds them: here the second dim (at offset 25 of
    # the dims at 17) is past the largest numpy allows
    blob = bytearray(checkpoint.encode({"w": np.zeros((0, 2))}))
    blob[25:33] = struct.pack("<Q", 2 ** 63)
    with pytest.raises(ValueError, match=r"^dims of 'w' at offset 17 give shape "
                                         r"\(0, 9223372036854775808\), which numpy "
                                         r"cannot build: "):
        checkpoint.decode(bytes(blob))


def test_encoded_length_counts_rank_zero_and_multibyte_names():
    # 8 of magic and version; per tensor, 4 + name bytes + 4 + 8 per dim
    # + 8 per value: 's' 17, 'wé/µ' (6 bytes) 30 and 'w' 73
    t = {"s": np.array(3.5), "wé/µ": np.zeros((2, 0)), "w": np.ones((2, 3)).T}
    assert len(checkpoint.encode(t)) == 128


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
