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
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .grid import GridSpec
from .model import WeatherState

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

@dataclass
class WeatherDataset:
    """Hourly truth fields plus one or more perturbed input sources.

    truth holds (surface_out + atmos_vars*levels) planes per time; each
    source holds (surface_in + atmos_vars*levels) planes. Everything is
    float32 at rest and widened to float64 on extraction.
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
        if self.truth.shape != (t, n_truth, h, w) or self.truth.dtype != np.float32:
            raise DataError(f"truth block must be float32 {(t, n_truth, h, w)}")
        if not self.sources:
            raise DataError("dataset needs at least one input source")
        for s in self.sources:
            if s.shape != (t, n_in, h, w) or s.dtype != np.float32:
                raise DataError(f"source block must be float32 {(t, n_in, h, w)}")

    @property
    def n_times(self) -> int:
        return int(self.times.size)

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    def index_at(self, hour: int) -> int:
        i = int(np.searchsorted(self.times, hour))
        if i >= self.times.size or self.times[i] != hour:
            raise DataError(f"no sample at hour {hour}")
        return i

    def input_state(self, idx: int, source: int = 0) -> WeatherState:
        h, w = self.grid.rows, self.grid.cols
        arr = self.sources[source][idx].astype(np.float64)
        sfc = arr[:self.surface_in]
        atm = arr[self.surface_in:].reshape(self.atmos_vars, self.levels, h, w)
        return WeatherState(int(self.times[idx]), sfc, atm)

    def truth_fields(self, idx: int):
        """Target planes at one time: (surface (S,H,W), atmos (A,L,H,W))."""
        h, w = self.grid.rows, self.grid.cols
        arr = self.truth[idx].astype(np.float64)
        sfc = arr[:self.surface_out]
        atm = arr[self.surface_out:].reshape(self.atmos_vars, self.levels, h, w)
        return sfc, atm

    def plane_sigmas(self) -> np.ndarray:
        """Per-truth-plane standard deviation over all times; floored away from 0."""
        flat = self.truth.reshape(self.n_times, self.truth.shape[1], -1)
        sig = flat.astype(np.float64).std(axis=(0, 2))
        return np.maximum(sig, 1e-6)


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

def dump_dataset(ds: WeatherDataset) -> bytes:
    g = ds.grid
    parts = [MAGIC, struct.pack("<I", VERSION)]
    parts.append(struct.pack("<6d", float(g.rows), float(g.cols), g.north_lat,
                             g.lat_step, g.lon_step, g.planet_radius_km))
    flags = _FLAG_SOUTH_POLE_OMITTED if g.south_pole_omitted else 0
    parts.append(struct.pack("<B", flags))
    parts.append(struct.pack("<6I", ds.surface_in, ds.surface_out,
                             ds.atmos_vars, ds.levels, ds.n_sources,
                             ds.n_times))
    parts.append(ds.times.astype("<i8").tobytes())
    for t in range(ds.n_times):
        parts.append(np.ascontiguousarray(ds.truth[t]).astype("<f4").tobytes())
        for src in ds.sources:
            parts.append(np.ascontiguousarray(src[t]).astype("<f4").tobytes())
    return b"".join(parts)


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def need(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise DataError("dataset file truncated")
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out


def load_dataset(blob: bytes) -> WeatherDataset:
    """Parse a WMD3 blob; any malformed or non-finite content raises DataError."""
    r = _Reader(blob)
    if r.need(4) != MAGIC:
        raise DataError("not a WMD3 dataset (bad magic)")
    (version,) = struct.unpack("<I", r.need(4))
    if version != VERSION:
        raise DataError(f"unsupported WMD3 version {version}")
    rows_f, cols_f, north, lat_step, lon_step, radius = struct.unpack(
        "<6d", r.need(48))
    if not (math.isfinite(rows_f) and math.isfinite(cols_f)) \
            or rows_f != int(rows_f) or cols_f != int(cols_f):
        raise DataError("non-integer grid dimensions")
    (flags,) = struct.unpack("<B", r.need(1))
    try:
        grid = GridSpec(rows=int(rows_f), cols=int(cols_f), north_lat=north,
                        lat_step=lat_step, lon_step=lon_step,
                        south_pole_omitted=bool(flags & _FLAG_SOUTH_POLE_OMITTED),
                        planet_radius_km=radius)
    except ConfigError as e:
        raise DataError(f"invalid grid header: {e}") from e
    s_in, s_out, a_vars, levels, n_sources, n_times = struct.unpack(
        "<6I", r.need(24))
    if s_in < 1 or s_out < s_in or a_vars < 1 or levels < 1 or n_sources < 1:
        raise DataError("invalid channel counts in header")

    h, w = grid.rows, grid.cols
    n_truth = s_out + a_vars * levels
    n_in = s_in + a_vars * levels
    truth_bytes = n_truth * h * w * 4
    src_bytes = n_in * h * w * 4
    # check the size the header implies before allocating anything for it
    body = n_times * (8 + truth_bytes + n_sources * src_bytes)
    if r.pos + body > len(blob):
        raise DataError(f"dataset file truncated: header implies {body} bytes after it, "
                        f"{len(blob) - r.pos} present")
    if r.pos + body < len(blob):
        raise DataError(f"{len(blob) - r.pos - body} trailing bytes after dataset")
    times = np.frombuffer(r.need(8 * n_times), dtype="<i8").astype(np.int64)
    truth = np.empty((n_times, n_truth, h, w), dtype=np.float32)
    srcs = [np.empty((n_times, n_in, h, w), dtype=np.float32)
            for _ in range(n_sources)]
    for t in range(n_times):
        truth[t] = np.frombuffer(r.need(truth_bytes),
                                 dtype="<f4").reshape(n_truth, h, w)
        _check_finite(truth[t], "truth", t)
        for j in range(n_sources):
            srcs[j][t] = np.frombuffer(r.need(src_bytes),
                                       dtype="<f4").reshape(n_in, h, w)
            _check_finite(srcs[j][t], f"source {j}", t)
    return WeatherDataset(grid=grid, surface_in=s_in, surface_out=s_out,
                          atmos_vars=a_vars, levels=levels, times=times,
                          truth=truth, sources=tuple(srcs))


def _check_finite(planes: np.ndarray, field: str, t: int) -> None:
    if not np.isfinite(planes).all():
        p = int(np.argmin(np.isfinite(planes).all(axis=(1, 2))))
        raise DataError(f"non-finite value in {field} plane {p} at time index {t}")


def save_dataset_file(ds: WeatherDataset, path) -> None:
    with open(path, "wb") as f:
        f.write(dump_dataset(ds))


def load_dataset_file(path) -> WeatherDataset:
    with open(path, "rb") as f:
        return load_dataset(f.read())
