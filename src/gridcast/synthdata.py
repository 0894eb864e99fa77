"""Synthetic atmospheric fields and the WMD3 dataset container.

Each field plane is a mix of traveling waves: integer zonal wavenumbers so
the fields close around the longitude circle, slow temporal phases (periods
of ten to thirty days), and a steady zonal drift. Consecutive hours are
strongly correlated; states a couple of weeks apart are not. With the
temporal phases switched off the dynamics reduce to rigid rotation, which
gives downstream tests an exactly known answer.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .grid import GridSpec
from .model import WeatherState
from .serialization import read_file, read_into

MAGIC = b"WMD3"
VERSION = 1

MIN_PERIOD_HOURS = 240.0
MAX_PERIOD_HOURS = 720.0
MODES_PER_PLANE = 10

_FLAG_SOUTH_POLE_OMITTED = 0x01


# ---------------------------------------------------------------------------
# wave generator
# ---------------------------------------------------------------------------

DRIFT_COLS_PER_HOUR = 0.25  # quarter column per hour; integral shift every 4 h


def _plane_modes(rng, cols: int, advection_only: bool):
    """Draw one plane's wave mix: wavenumbers, phases, frequencies, amplitudes."""
    # cap the zonal wavenumber so the fastest mode drifts well under a
    # radian per hour even on very coarse grids
    k_max = max(1, min(6, cols // 8))
    k = rng.integers(1, k_max + 1, size=MODES_PER_PLANE)
    m = rng.integers(0, 4, size=MODES_PER_PLANE)
    psi = rng.uniform(0.0, 2.0 * np.pi, size=MODES_PER_PLANE)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=MODES_PER_PLANE)
    period = rng.uniform(MIN_PERIOD_HOURS, MAX_PERIOD_HOURS, size=MODES_PER_PLANE)
    sign = np.where(rng.random(MODES_PER_PLANE) < 0.5, -1.0, 1.0)
    if advection_only:
        omega = np.zeros(MODES_PER_PLANE)
    else:
        omega = sign * 2.0 * np.pi / period
    raw = rng.uniform(0.5, 1.5, size=MODES_PER_PLANE) / (1.0 + k)
    # each cosine contributes amp^2/2 to the variance, so this puts the
    # plane standard deviation near one
    amp = raw / np.sqrt(np.sum(raw * raw) / 2.0)
    offset = rng.normal(0.0, 0.5)
    return k, m, psi, phi, omega, amp, offset


def _plane_series(modes, drift: float, times: np.ndarray,
                  rows: int, cols: int) -> np.ndarray:
    """Evaluate one plane at every requested hour; returns (T, rows, cols)."""
    k, m, psi, phi, omega, amp, offset = modes
    col = np.arange(cols, dtype=np.float64)
    row = np.arange(rows, dtype=np.float64)
    t = times.astype(np.float64)
    out = np.full((t.size, rows, cols), offset)
    for i in range(k.size):
        merid = np.cos(np.pi * m[i] * (row + 0.5) / rows + psi[i])
        phase = ((2.0 * np.pi * k[i] / cols) * (col[None, :] - drift * t[:, None])
                 + omega[i] * t[:, None] + phi[i])
        out += amp[i] * merid[None, :, None] * np.cos(phase)[:, None, :]
    return out


# ---------------------------------------------------------------------------
# dataset container
# ---------------------------------------------------------------------------

def _find(times: np.ndarray, hour: int):
    """The index of hour in the sorted times, or None when they lack it."""
    i = int(np.searchsorted(times, hour))
    return i if i < times.size and times[i] == hour else None


def _require_increasing(times: np.ndarray) -> None:
    if not (times[1:] > times[:-1]).all():
        raise DataError("time axis must be strictly increasing")


@dataclass
class WeatherDataset:
    """Hourly truth fields plus one or more perturbed input sources.

    truth holds (surface_out + atmos_vars*levels) planes per time; each
    source holds (surface_in + atmos_vars*levels) planes. Everything is
    float32 at rest and widened to float64 on extraction.  truth and sources
    are made read-only, so the memoized plane_sigmas cannot go stale.
    """
    grid: GridSpec
    surface_in: int
    surface_out: int
    atmos_vars: int
    levels: int
    times: np.ndarray  # (T,) int64 hours
    truth: np.ndarray  # (T, surface_out + atmos_vars*levels, rows, cols) f32
    sources: tuple  # each (T, surface_in + atmos_vars*levels, rows, cols) f32

    def __post_init__(self):
        t = self.times.size
        h, w = self.grid.rows, self.grid.cols
        n_truth = self.surface_out + self.atmos_vars * self.levels
        n_in = self.surface_in + self.atmos_vars * self.levels
        if self.times.dtype != np.int64:
            raise DataError("time axis must be int64 hours")
        _require_increasing(self.times)
        if self.truth.shape != (t, n_truth, h, w) or self.truth.dtype != np.float32:
            raise DataError(f"truth block must be float32 {(t, n_truth, h, w)}")
        if not self.sources:
            raise DataError("dataset needs at least one input source")
        for s in self.sources:
            if s.shape != (t, n_in, h, w) or s.dtype != np.float32:
                raise DataError(f"source block must be float32 {(t, n_in, h, w)}")
        for block in (self.truth, *self.sources):
            block.flags.writeable = False
        self._sigmas = None  # plane_sigmas, once computed

    @property
    def n_times(self) -> int:
        return int(self.times.size)

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    def index_at(self, hour: int) -> int:
        i = _find(self.times, hour)
        if i is None:
            raise DataError(f"no sample at hour {hour}")
        return i

    def input_state(self, idx: int, source: int = 0) -> WeatherState:
        if not 0 <= source < self.n_sources:
            raise DataError(f"input stream {source} out of range: the dataset "
                            f"carries {self.n_sources} stream(s)")
        return WeatherState(int(self.times[idx]),
                            *self._fields(self.sources[source][idx], self.surface_in))

    def truth_fields(self, idx: int):
        """Target planes at one time: (surface (S,H,W), atmos (A,L,H,W))."""
        return self._fields(self.truth[idx], self.surface_out)

    def _fields(self, planes: np.ndarray, n_sfc: int):
        """One time's planes as float64 copies: (surface, atmos (A,L,H,W))."""
        arr = planes.astype(np.float64)
        return arr[:n_sfc], arr[n_sfc:].reshape(self.atmos_vars, self.levels, *arr.shape[1:])

    def plane_sigmas(self) -> np.ndarray:
        """Per-truth-plane standard deviation over all times; floored away from 0.

        Computed on the first call; every call returns the same read-only array.
        """
        if self._sigmas is None:
            flat = self.truth.reshape(self.n_times, self.truth.shape[1], -1)
            self._sigmas = np.maximum(flat.astype(np.float64).std(axis=(0, 2)), 1e-6)
            self._sigmas.flags.writeable = False
        return self._sigmas


def generate_dataset(grid: GridSpec, surface_in: int, surface_out: int,
                     atmos_vars: int, levels: int, hours: int, seed: int = 0,
                     n_sources: int = 1, advection_only: bool = False,
                     perturbation_scale: float = 0.05) -> WeatherDataset:
    """Build an (hours+1)-sample hourly dataset from seeded traveling waves.

    Input sources are the truth's first surface_in surface planes plus all
    atmospheric planes, each source corrupted by its own seeded Gaussian
    perturbation. advection_only freezes the temporal phases and gives every
    plane the same drift, so the whole dataset rotates rigidly; the shift is
    a whole number of columns at every hour divisible by four.
    """
    if surface_in < 1 or surface_out < surface_in:
        raise ConfigError("need 1 <= surface_in <= surface_out")
    if atmos_vars < 1 or levels < 1:
        raise ConfigError("need at least one atmospheric plane")
    if hours < 0:
        raise ConfigError("hours must be >= 0")
    if n_sources < 1:
        raise ConfigError("need at least one source")

    times = np.arange(hours + 1, dtype=np.int64)
    n_truth = surface_out + atmos_vars * levels

    truth = np.empty((times.size, n_truth, grid.rows, grid.cols), dtype=np.float32)
    for p in range(n_truth):
        rng = np.random.default_rng([seed, 7, p])
        modes = _plane_modes(rng, grid.cols, advection_only)
        if advection_only:
            drift = DRIFT_COLS_PER_HOUR  # shared: the dataset rotates rigidly
        else:
            sign = 1.0 if rng.random() < 0.5 else -1.0
            drift = DRIFT_COLS_PER_HOUR * sign
        truth[:, p] = _plane_series(modes, drift, times,
                                    grid.rows, grid.cols).astype(np.float32)

    in_planes = np.concatenate([np.arange(surface_in),
                                surface_out + np.arange(atmos_vars * levels)])
    base = truth[:, in_planes].astype(np.float64)
    sources = []
    for j in range(n_sources):
        srng = np.random.default_rng([seed, 11, j])
        noise = srng.normal(0.0, perturbation_scale, size=base.shape)
        sources.append((base + noise).astype(np.float32))

    return WeatherDataset(grid=grid, surface_in=surface_in,
                          surface_out=surface_out, atmos_vars=atmos_vars,
                          levels=levels, times=times, truth=truth,
                          sources=tuple(sources))


# ---------------------------------------------------------------------------
# WMD3 byte layout
# ---------------------------------------------------------------------------
# magic | u32 version | 6x f64 grid (rows, cols, north_lat, lat_step,
# lon_step, planet_radius_km) | flags byte | u32 surface_in | u32 surface_out
# | u32 atmos_vars | u32 levels | u32 n_sources | u32 n_times | i64 x n_times
# | per time: truth planes f32, then each source's planes f32. All little
# endian, fields channel-major.

_HEADER = struct.Struct("<4sI6dB6I")


def _dataset_parts(ds: WeatherDataset):
    g = ds.grid
    flags = _FLAG_SOUTH_POLE_OMITTED if g.south_pole_omitted else 0
    yield _HEADER.pack(MAGIC, VERSION, float(g.rows), float(g.cols), g.north_lat,
                       g.lat_step, g.lon_step, g.planet_radius_km, flags, ds.surface_in,
                       ds.surface_out, ds.atmos_vars, ds.levels, ds.n_sources, ds.n_times)
    yield np.ascontiguousarray(ds.times, dtype="<i8")
    for t in range(ds.n_times):
        yield np.ascontiguousarray(ds.truth[t], dtype="<f4")
        for src in ds.sources:
            yield np.ascontiguousarray(src[t], dtype="<f4")


def dump_dataset(ds: WeatherDataset) -> bytes:
    return b"".join(_dataset_parts(ds))


@dataclass(frozen=True)
class _Header:
    """A checked WMD3 header: the grid, the channel counts and the number of times."""
    grid: GridSpec
    surface_in: int
    surface_out: int
    atmos_vars: int
    levels: int
    n_sources: int
    n_times: int

    @property
    def n_truth(self) -> int:
        return self.surface_out + self.atmos_vars * self.levels

    @property
    def n_in(self) -> int:
        return self.surface_in + self.atmos_vars * self.levels

    @property
    def hour_shape(self) -> tuple:
        """(plane, row, col) of one time's block in the file."""
        return (self.n_truth + self.n_sources * self.n_in, self.grid.rows, self.grid.cols)


def _read_header(head, size: int) -> _Header:
    """Check the header at the start of a WMD3 file of size bytes, and the size it
    implies, before anything is allocated through its counts."""
    if size < _HEADER.size:
        raise DataError("dataset file truncated")
    (magic, version, rows_f, cols_f, north, lat_step, lon_step, radius, flags,
     s_in, s_out, a_vars, levels, n_sources, n_times) = _HEADER.unpack_from(head)
    if magic != MAGIC:
        raise DataError("not a WMD3 dataset (bad magic)")
    if version != VERSION:
        raise DataError(f"unsupported WMD3 version {version}")
    if not (math.isfinite(rows_f) and math.isfinite(cols_f)) \
            or rows_f != int(rows_f) or cols_f != int(cols_f):
        raise DataError("non-integer grid dimensions")
    try:
        grid = GridSpec(rows=int(rows_f), cols=int(cols_f), north_lat=north,
                        lat_step=lat_step, lon_step=lon_step,
                        south_pole_omitted=bool(flags & _FLAG_SOUTH_POLE_OMITTED),
                        planet_radius_km=radius)
    except ConfigError as e:
        raise DataError(f"invalid grid header: {e}") from e
    hdr = _Header(grid, s_in, s_out, a_vars, levels, n_sources, n_times)
    hour_bytes = 4 * math.prod(hdr.hour_shape)
    # planes numpy cannot index are malformed even when n_times is 0
    if s_in < 1 or s_out < s_in or a_vars < 1 or levels < 1 or n_sources < 1 \
            or hour_bytes > np.iinfo(np.intp).max:
        raise DataError("invalid channel counts in header")
    body = n_times * (8 + hour_bytes)
    if _HEADER.size + body > size:
        raise DataError(f"dataset file truncated: header implies {body} bytes after it, "
                        f"{size - _HEADER.size} present")
    if _HEADER.size + body < size:
        raise DataError(f"{size - _HEADER.size - body} trailing bytes after dataset")
    return hdr


def _require_finite(hdr: _Header, hour: np.ndarray, t: int) -> None:
    """Name the first non-finite value of the planes of the file's hour t, (plane,
    row, col) in file order."""
    if not np.isfinite(hour).all():
        # planes are in file order, so the first bad value is in the first bad plane
        _, h, w = hdr.hour_shape
        p = int(np.argmin(np.isfinite(hour))) // (h * w)
        j, q = divmod(p - hdr.n_truth, hdr.n_in)
        field = f"truth plane {p}" if p < hdr.n_truth else f"source {j} plane {q}"
        raise DataError(f"non-finite value in {field} at time index {t}")


def _dataset(hdr: _Header, times: np.ndarray, planes: np.ndarray) -> WeatherDataset:
    """truth and sources as read-only views of planes (time, plane, row, col)."""
    planes.flags.writeable = False
    nt, ni = hdr.n_truth, hdr.n_in
    return WeatherDataset(grid=hdr.grid, surface_in=hdr.surface_in,
                          surface_out=hdr.surface_out, atmos_vars=hdr.atmos_vars,
                          levels=hdr.levels, times=times, truth=planes[:, :nt],
                          sources=tuple(planes[:, nt + j * ni:nt + (j + 1) * ni]
                                        for j in range(hdr.n_sources)))


def load_dataset(buf) -> WeatherDataset:
    """Parse a WMD3 buffer into read-only views of it: truth and sources share one
    (time, plane, row, col) array. Malformed or non-finite content raises DataError."""
    buf = np.frombuffer(buf, dtype=np.uint8)
    hdr = _read_header(buf, buf.size)
    off, n = _HEADER.size, hdr.n_times
    times = np.frombuffer(buf, dtype="<i8", count=n, offset=off).astype(np.int64)
    _require_increasing(times)
    planes = buf[off + 8 * n:].view("<f4").reshape(n, *hdr.hour_shape)
    for t in range(n):  # an hour at a time, so the check's temporaries stay small
        _require_finite(hdr, planes[t], t)
    return _dataset(hdr, times, planes)


def save_dataset_file(ds: WeatherDataset, path) -> None:
    with open(path, "wb") as f:
        f.writelines(_dataset_parts(ds))


def load_dataset_file(path, hours=None) -> WeatherDataset:
    """Load a WMD3 file; with hours, keep only those hours.

    Without hours the whole file is read into one buffer (load_dataset). With
    hours, None among them standing for the file's last hour, the header, the
    size and the time axis are checked first; then the body is streamed one
    hour at a time, every hour is checked finite as load_dataset checks it, and
    only the kept hours are held, in one private read-only array. Hours the file
    lacks are left out, so index_at reports them.
    """
    if hours is None:
        return load_dataset(read_file(path))
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = np.empty(min(size, _HEADER.size), dtype=np.uint8)
        read_into(f, head, path)
        hdr = _read_header(head, size)
        times = np.empty(hdr.n_times, dtype="<i8")
        read_into(f, times, path)
        times = times.astype(np.int64)
        _require_increasing(times)
        found = [times.size - 1 if hour is None else _find(times, hour) for hour in hours]
        keep = sorted({i for i in found if i is not None and i >= 0})
        planes = np.empty((len(keep), *hdr.hour_shape), dtype="<f4")
        spare = np.empty(hdr.hour_shape, dtype="<f4")
        slots = dict(zip(keep, planes))
        for t in range(hdr.n_times):
            block = slots.get(t, spare)
            read_into(f, block, path)
            _require_finite(hdr, block, t)
    return _dataset(hdr, times[keep], planes)
