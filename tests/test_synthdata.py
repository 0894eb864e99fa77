"""Synthetic data: wave statistics, container round trip, extraction."""

import os
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridcast.errors import ConfigError, DataError
from gridcast.grid import GridSpec, desk_grid
from gridcast.model import encode, init_model_params, tiny_config
from gridcast.synthdata import (
    WeatherDataset,
    dump_dataset,
    generate_dataset,
    load_dataset,
    load_dataset_file,
    save_dataset_file,
)

TINY_GRID = GridSpec(rows=24, cols=24, lat_step=4.5, lon_step=15.0)


def small_ds(**kw):
    args = dict(grid=TINY_GRID, surface_in=2, surface_out=3, atmos_vars=2,
                levels=4, hours=12, seed=5)
    args.update(kw)
    return generate_dataset(**args)


class TestGenerate:
    def test_shapes_and_dtypes(self):
        ds = small_ds(n_sources=2)
        assert ds.times.tolist() == list(range(13))
        assert ds.truth.shape == (13, 3 + 8, 24, 24)
        assert ds.truth.dtype == np.float32
        assert len(ds.sources) == 2
        assert ds.sources[0].shape == (13, 2 + 8, 24, 24)

    def test_deterministic(self):
        a = small_ds()
        b = small_ds()
        assert a.truth.tobytes() == b.truth.tobytes()
        assert a.sources[0].tobytes() == b.sources[0].tobytes()

    def test_seed_changes_fields(self):
        assert small_ds(seed=5).truth.tobytes() != small_ds(seed=6).truth.tobytes()

    def test_amplitude_order_one(self):
        ds = small_ds()
        sig = ds.plane_sigmas()
        assert np.all(sig > 0.2) and np.all(sig < 3.0)

    def test_plane_sigmas_computed_once_and_read_only(self):
        ds = small_ds(n_sources=2)
        sig = ds.plane_sigmas()
        assert ds.plane_sigmas() is sig
        flat = ds.truth.reshape(ds.n_times, ds.truth.shape[1], -1).astype(np.float64)
        assert sig.tobytes() == np.maximum(flat.std(axis=(0, 2)), 1e-6).tobytes()
        for block in (sig, ds.truth, *ds.sources):
            with pytest.raises(ValueError, match="read-only"):
                block[0] = 0.0

    def test_hourly_correlation_high_and_decays(self):
        ds = generate_dataset(TINY_GRID, 1, 3, 1, 3, hours=317, seed=9)
        f = ds.truth.reshape(318, 6, -1).astype(np.float64)
        f = f - f.mean(axis=2, keepdims=True)

        def corr(a, b):
            return float((a * b).sum() / np.sqrt((a * a).sum() * (b * b).sum()))

        short = [corr(f[t, p], f[t + 1, p])
                 for t in range(0, 200, 7) for p in range(6)]
        assert min(short) > 0.9
        far = [abs(corr(f[0, p], f[317, p])) for p in range(6)]
        assert np.mean(far) < 0.45 and max(far) < 0.85

    def test_advection_only_is_rigid_rotation(self):
        ds = small_ds(advection_only=True, hours=20)
        t0 = ds.truth[0]
        # the shift is integral every 4 hours; recover it by probing rolls
        hits = [s for s in range(24)
                if np.allclose(ds.truth[4], np.roll(t0, s, axis=-1), atol=1e-5)]
        assert len(hits) == 1
        s4 = hits[0]
        for t in (8, 12, 20):
            shift = (s4 * t // 4) % 24
            assert np.allclose(ds.truth[t], np.roll(t0, shift, axis=-1),
                               atol=1e-5)

    def test_sources_are_perturbed_views(self):
        ds = small_ds(n_sources=2, perturbation_scale=0.05)
        a = ds.sources[0].astype(np.float64)
        b = ds.sources[1].astype(np.float64)
        base = np.concatenate([ds.truth[:, :2], ds.truth[:, 3:]],
                              axis=1).astype(np.float64)
        for s in (a, b):
            rms = np.sqrt(((s - base) ** 2).mean())
            assert 0.03 < rms < 0.08
        assert not np.allclose(a, b)

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigError):
            small_ds(surface_in=4)  # more inputs than truth surface planes
        with pytest.raises(ConfigError):
            small_ds(hours=-1)
        with pytest.raises(ConfigError):
            small_ds(n_sources=0)


class TestContainer:
    def test_round_trip_bitwise(self):
        ds = small_ds(n_sources=3, hours=4)
        blob = dump_dataset(ds)
        back = load_dataset(blob)
        assert dump_dataset(back) == blob
        assert back.truth.tobytes() == ds.truth.tobytes()
        assert back.times.tobytes() == ds.times.tobytes()
        assert back.n_sources == 3
        for j in range(3):
            assert back.sources[j].tobytes() == ds.sources[j].tobytes()
        assert back.grid == ds.grid

    def test_file_round_trip(self, tmp_path):
        ds = small_ds(hours=3, n_sources=2)
        p = tmp_path / "d.wmd3"
        save_dataset_file(ds, p)
        back = load_dataset_file(p)
        assert back.truth.tobytes() == ds.truth.tobytes()
        assert p.read_bytes() == dump_dataset(ds) == dump_dataset(back)

    def test_bad_magic(self):
        blob = bytearray(dump_dataset(small_ds(hours=1)))
        blob[0] = ord("X")
        with pytest.raises(DataError):
            load_dataset(bytes(blob))

    def test_bad_version(self):
        blob = bytearray(dump_dataset(small_ds(hours=1)))
        blob[4] = 99
        with pytest.raises(DataError):
            load_dataset(bytes(blob))

    def test_truncation(self):
        blob = dump_dataset(small_ds(hours=1))
        with pytest.raises(DataError):
            load_dataset(blob[:-5])

    def test_trailing_bytes(self):
        blob = dump_dataset(small_ds(hours=1))
        with pytest.raises(DataError):
            load_dataset(blob + b"\x00")

    def test_huge_header_count_raises_before_allocating(self, tmp_path):
        blob = bytearray(dump_dataset(small_ds(hours=1)))
        struct.pack_into("<I", blob, 61, 2 ** 31)  # surface_out
        with pytest.raises(DataError, match="truncated"):
            load_dataset(bytes(blob))
        p = tmp_path / "d.wmd3"
        p.write_bytes(blob)
        with pytest.raises(DataError, match="truncated"):
            load_dataset_file(p, hours=(None,))

    def test_streamed_read_keeps_only_the_named_hours(self, tmp_path):
        ds = small_ds(hours=5, n_sources=2)
        p = tmp_path / "d.wmd3"
        save_dataset_file(ds, p)
        full = load_dataset_file(p)
        hour_bytes = full.truth[0].nbytes + sum(s[0].nbytes for s in full.sources)
        for hours, kept in [((None,), [5]), ((0,), [0]), ((3, None, 3, 99), [3, 5]),
                            ((-1, 6), [])]:
            part = load_dataset_file(p, hours=hours)
            assert part.grid == full.grid and part.n_sources == 2
            assert part.times.tolist() == kept
            assert part.truth.tobytes() == full.truth[kept].tobytes()
            for a, b in zip(part.sources, full.sources):
                assert a.tobytes() == b[kept].tobytes()
            buf = part.truth.base
            assert buf.nbytes == len(kept) * hour_bytes
            for arr in (part.truth,) + part.sources:
                assert arr.base is buf
                with pytest.raises(ValueError, match="read-only"):
                    arr[...] = 1.0

    @pytest.mark.parametrize("field, block, value", [
        ("truth", 0, np.nan), ("source 1", 2, np.inf)])
    def test_non_finite_plane_names_time_and_field(self, field, block, value):
        ds = small_ds(hours=2, n_sources=2)
        truth_bytes = ds.truth[0].nbytes
        src_bytes = ds.sources[0][0].nbytes
        blob = bytearray(dump_dataset(ds))
        # each time holds the truth block, then the source blocks
        time1 = 81 + 8 * ds.n_times + truth_bytes + 2 * src_bytes
        start = time1 + (block and truth_bytes + (block - 1) * src_bytes)
        plane4 = start + 4 * ds.truth[0, 0].nbytes
        struct.pack_into("<f", blob, plane4 + 40, value)
        with pytest.raises(DataError, match=f"{field} plane 4 at time index 1"):
            load_dataset(bytes(blob))

    def test_header_implying_an_unindexable_record_rejected(self):
        blob = bytearray(dump_dataset(small_ds(hours=1)))
        # zero times, so the body is empty whatever the record size
        struct.pack_into("<6I", blob, 57, 1, 2 ** 32 - 1, 2 ** 32 - 1,
                         2 ** 32 - 1, 2, 0)
        with pytest.raises(DataError, match="channel counts"):
            load_dataset(bytes(blob[:81]))

    def test_loaded_fields_are_read_only_views_of_one_buffer(self, tmp_path):
        p = tmp_path / "d.wmd3"
        save_dataset_file(small_ds(hours=2, n_sources=2), p)
        back = load_dataset_file(p)
        buf = back.truth.base
        assert buf.nbytes == p.stat().st_size
        for arr in (back.truth,) + back.sources:
            assert arr.base is buf and np.shares_memory(arr, buf)
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0, 0, 0] = 1.0

    def test_desk_grid_header_survives(self):
        ds = generate_dataset(desk_grid(), 4, 6, 3, 8, hours=2, seed=1)
        back = load_dataset(dump_dataset(ds))
        assert back.grid == desk_grid()


class TestExtraction:
    def test_index_at(self):
        ds = small_ds(hours=6)
        assert ds.index_at(0) == 0
        assert ds.index_at(6) == 6
        with pytest.raises(DataError):
            ds.index_at(7)

    def test_input_state_feeds_encoder(self):
        cfg = tiny_config()
        ds = generate_dataset(cfg.grid, cfg.surface_in, cfg.surface_out,
                              cfg.atmos_vars, cfg.levels, hours=2, seed=3)
        st = ds.input_state(1)
        assert st.valid_time == 1
        assert st.surface.dtype == np.float64
        params = init_model_params(cfg, seed=0)
        lat = encode(st, params, cfg)
        assert lat.valid_time == 1

    @pytest.mark.parametrize("source", [-1, 2, 3])
    def test_input_state_rejects_unknown_stream(self, source):
        ds = small_ds(hours=1, n_sources=2)
        with pytest.raises(DataError, match="carries 2 stream"):
            ds.input_state(0, source)

    def test_truth_fields_shapes(self):
        ds = small_ds()
        sfc, atm = ds.truth_fields(2)
        assert sfc.shape == (3, 24, 24) and sfc.dtype == np.float64
        assert atm.shape == (2, 4, 24, 24)
        flat = np.concatenate([sfc, atm.reshape(8, 24, 24)])
        assert np.allclose(flat, ds.truth[2].astype(np.float64))

    @pytest.mark.parametrize("times", [[0, 2, 1], [0, 1, 1]])
    def test_time_axis_must_increase(self, times):
        ds = small_ds(hours=2)
        with pytest.raises(DataError, match="strictly increasing"):
            WeatherDataset(grid=ds.grid, surface_in=2, surface_out=3,
                           atmos_vars=2, levels=4,
                           times=np.array(times, dtype=np.int64),
                           truth=ds.truth, sources=ds.sources)
        blob = bytearray(dump_dataset(ds))
        struct.pack_into("<3q", blob, 81, *times)
        with pytest.raises(DataError, match="strictly increasing"):
            load_dataset(bytes(blob))

    def test_dataset_validation(self):
        ds = small_ds(hours=1)
        with pytest.raises(DataError):
            WeatherDataset(grid=ds.grid, surface_in=2, surface_out=3,
                           atmos_vars=2, levels=4, times=ds.times,
                           truth=ds.truth.astype(np.float64), sources=ds.sources)


_FUZZ_BLOB = dump_dataset(small_ds(hours=1, n_sources=2))
_HEADER_BYTES = 81 + 8 * 2  # through the time axis


_FUZZ_HOUR_BYTES = (len(_FUZZ_BLOB) - _HEADER_BYTES) // 2


def _mutated_or_truncated(data) -> bytes:
    blob = bytearray(_FUZZ_BLOB)
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        for _ in range(data.draw(st.integers(1, 4), label="mutations")):
            pos = data.draw(st.integers(0, _HEADER_BYTES - 1), label="position")
            blob[pos] = data.draw(st.integers(0, 255), label="byte")
    return bytes(blob)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_or_truncated_blob_raises_only_data_error(data):
    try:
        load_dataset(_mutated_or_truncated(data))
    except DataError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_streamed_read_fails_and_keeps_as_the_full_load(data):
    """The streamed read raises exactly when the full load does, with its message,
    before holding even one hour's block; on a valid file every kept hour is the
    full load's slice, bitwise."""
    blob = _mutated_or_truncated(data)
    hours = data.draw(st.lists(st.one_of(st.none(), st.integers(-2, 3)), max_size=3),
                      label="hours")
    try:
        full, want = load_dataset(blob), None
    except DataError as e:
        want = str(e)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "d.wmd3")
        with open(path, "wb") as f:
            f.write(blob)
        tracemalloc.start()
        try:
            part, got = load_dataset_file(path, hours=hours), None
        except DataError as e:
            got = str(e)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    assert got == want
    if want is not None:
        assert peak < _FUZZ_HOUR_BYTES, peak
        return
    kept = sorted({full.n_times - 1 if h is None else int(np.searchsorted(full.times, h))
                   for h in hours if h is None or h in full.times})
    assert part.grid == full.grid and part.times.tolist() == full.times[kept].tolist()
    assert part.truth.tobytes() == full.truth[kept].tobytes()
    for a, b in zip(part.sources, full.sources, strict=True):
        assert a.tobytes() == b[kept].tobytes()


def _per_plane_walk_message(ds):
    """The loader's former check, as the oracle: walk each time's truth block
    and then its source blocks, naming the first plane that holds a
    non-finite value."""
    for t in range(ds.n_times):
        blocks = [("truth", ds.truth[t])]
        blocks += [(f"source {j}", s[t]) for j, s in enumerate(ds.sources)]
        for field, planes in blocks:
            if not np.isfinite(planes).all():
                p = int(np.argmin(np.isfinite(planes).all(axis=(1, 2))))
                return f"non-finite value in {field} plane {p} at time index {t}"
    return None


_NAN_DS = small_ds(hours=2, n_sources=2)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 10),
                          st.integers(0, 23), st.integers(0, 23),
                          st.sampled_from([np.nan, np.inf, -np.inf])),
                min_size=1, max_size=4))
def test_non_finite_message_matches_the_per_plane_walk(bad):
    truth = _NAN_DS.truth.copy()
    sources = [s.copy() for s in _NAN_DS.sources]
    for block, t, plane, y, x, value in bad:
        arr = truth if block == 0 else sources[block - 1]
        arr[t, plane % arr.shape[1], y, x] = value
    ds = WeatherDataset(grid=_NAN_DS.grid, surface_in=2, surface_out=3,
                        atmos_vars=2, levels=4, times=_NAN_DS.times,
                        truth=truth, sources=tuple(sources))
    want = _per_plane_walk_message(ds)
    with pytest.raises(DataError) as e:
        load_dataset(dump_dataset(ds))
    assert str(e.value) == want
