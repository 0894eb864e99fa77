"""Parameter container: byte layout and round trips."""

import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridcast import serialization
from gridcast.serialization import (
    ContainerError,
    dump_params,
    load_params,
    load_params_file,
    save_params_file,
)
from gridcast.grid import GridSpec
from gridcast.synthdata import generate_dataset, load_dataset_file, save_dataset_file


def test_header_layout():
    buf = dump_params({})
    assert buf[:4] == b"LMTW"
    version, count = struct.unpack_from("<II", buf, 4)
    assert version == 1 and count == 0
    assert len(buf) == 12


def test_single_param_layout():
    arr = np.arange(6, dtype=np.float64).reshape(2, 3)
    buf = dump_params({"w": arr})
    off = 12
    (nlen,) = struct.unpack_from("<I", buf, off)
    assert nlen == 1
    assert buf[off + 4:off + 5] == b"w"
    (rank,) = struct.unpack_from("<I", buf, off + 5)
    assert rank == 2
    extents = struct.unpack_from("<2Q", buf, off + 9)
    assert extents == (2, 3)
    vals = np.frombuffer(buf, dtype="<f8", count=6, offset=off + 25)
    np.testing.assert_array_equal(vals.reshape(2, 3), arr)


def test_params_sorted_by_name():
    buf = dump_params({"zz": np.zeros(1), "aa": np.ones(1)})
    assert buf.index(b"aa") < buf.index(b"zz")


def test_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(3)
    params = {
        "encoder.w": rng.standard_normal((3, 4, 5)),
        "scalar": np.float64(2.5),
        "vec": rng.standard_normal(7),
    }
    p = tmp_path / "params.bin"
    save_params_file(p, params)
    back = load_params_file(p)
    assert set(back) == set(params)
    for k in params:
        got = back[k]
        want = np.asarray(params[k], dtype=np.float64)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    # byte-level idempotence
    assert dump_params(back) == p.read_bytes() == dump_params(params)
    for arr in back.values():
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0


def test_rejects_bad_magic():
    with pytest.raises(ContainerError):
        load_params(b"XXXX" + b"\x00" * 8)


def test_rejects_truncation():
    buf = dump_params({"w": np.ones((2, 2))})
    for cut in (2, 11, 20, len(buf) - 1):
        with pytest.raises(ContainerError):
            load_params(buf[:cut])


def test_rejects_trailing_garbage():
    buf = dump_params({"w": np.ones(2)})
    with pytest.raises(ContainerError):
        load_params(buf + b"\x00")


def test_rejects_unknown_version():
    buf = bytearray(dump_params({}))
    struct.pack_into("<I", buf, 4, 9)
    with pytest.raises(ContainerError):
        load_params(bytes(buf))


@settings(max_examples=25, deadline=None)
@given(st.dictionaries(
    st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)), min_size=1, max_size=12),
    st.integers(0, 3),
    max_size=5,
))
def test_round_trip_any_names_and_ranks(spec):
    rng = np.random.default_rng(11)
    params = {name: rng.standard_normal(tuple(range(2, 2 + rank)))
              for name, rank in spec.items()}
    back = load_params(dump_params(params))
    assert set(back) == set(params)
    for k, v in params.items():
        assert back[k].tobytes() == np.asarray(v, dtype=np.float64).tobytes()
        assert back[k].shape == np.asarray(v).shape


@pytest.mark.parametrize("name", [b"\xff", b"ok\xc3"])
def test_rejects_name_that_is_not_utf8(name):
    buf = b"LMTW" + struct.pack("<III", 1, 1, len(name)) + name + struct.pack("<I", 0) + bytes(8)
    with pytest.raises(ContainerError, match="not UTF-8"):
        load_params(buf)


@pytest.mark.parametrize("names", [("w", "w"), ("zz", "aa")])
def test_rejects_duplicate_or_unsorted_names(names):
    a, b = (dump_params({n: np.ones(2)}) for n in names)
    # splice the two one-entry containers into one two-entry container
    buf = bytearray(a + b[12:])
    struct.pack_into("<I", buf, 8, 2)
    with pytest.raises(ContainerError, match="strictly sorted"):
        load_params(bytes(buf))


_FUZZ_BLOB = dump_params({"a": np.zeros((2, 3)), "b.w": np.float64(1.5),
                          "c\u00e9": np.arange(4.0)})


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_or_truncated_container_raises_only_container_error(data):
    blob = bytearray(_FUZZ_BLOB)
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        for _ in range(data.draw(st.integers(1, 4), label="mutations")):
            pos = data.draw(st.integers(0, len(blob) - 1), label="position")
            blob[pos] = data.draw(st.integers(0, 255), label="byte")
    try:
        load_params(bytes(blob))
    except ContainerError:
        pass


def test_short_read_raises_os_error(tmp_path, monkeypatch):
    lmtw, wmd3 = tmp_path / "p.lmtw", tmp_path / "d.wmd3"
    save_params_file(lmtw, {"w": np.ones(3)})
    save_dataset_file(generate_dataset(GridSpec(rows=8, cols=12, lat_step=10.0, lon_step=30.0),
                                       1, 2, 1, 2, hours=1), wmd3)
    # the file shrank between the stat and the read: fstat reports 16 bytes more
    real = os.fstat
    monkeypatch.setattr(serialization.os, "fstat", lambda fd: os.stat_result(
        (0,) * 6 + (real(fd).st_size + 16,) + (0,) * 3))
    with pytest.raises(OSError, match="short read"):
        load_params_file(lmtw)
    with pytest.raises(OSError, match="short read"):
        load_dataset_file(wmd3)
