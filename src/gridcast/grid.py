"""Lat-lon grid geometry: weights, neighborhoods, synthetic static fields.

Rows run north to south starting at north_lat; columns run eastward with a
full circle of coverage, so the longitude axis is periodic.  The south pole
row is omitted so every latitude weight is strictly positive.

Neighborhoods are rectangular windows in (depth, row, col) index space with
full cardinality everywhere: the column axis wraps modulo the grid width,
and the depth and row axes translate the window inward at the boundaries
instead of shrinking it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

N_STATIC_FIELDS = 7


@dataclass(frozen=True)
class GridSpec:
    rows: int
    cols: int
    north_lat: float = 90.0
    lat_step: float = 0.25
    lon_step: float = 0.25
    south_pole_omitted: bool = True
    planet_radius_km: float = 6371.0

    def __post_init__(self):
        floats = (self.north_lat, self.lat_step, self.lon_step, self.planet_radius_km)
        if not all(math.isfinite(v) for v in floats):
            raise ConfigError(f"grid float fields must be finite, got {floats}")
        if self.rows < 1 or self.cols < 1:
            raise ConfigError(f"grid extents must be positive, got {self.rows}x{self.cols}")
        if self.lat_step <= 0 or self.lon_step <= 0:
            raise ConfigError("grid steps must be positive")
        if abs(self.cols * self.lon_step - 360.0) > 1e-9:
            raise ConfigError(
                f"{self.cols} columns of {self.lon_step} deg do not close the circle")
        south = self.north_lat - (self.rows - 1) * self.lat_step
        if self.north_lat > 90.0 + 1e-12 or south < -90.0 - 1e-12:
            raise ConfigError(f"grid rows span {south}..{self.north_lat}, beyond the poles")
        if self.south_pole_omitted and abs(south - (-90.0)) < 1e-12:
            raise ConfigError("south pole row present but declared omitted")
        if self.planet_radius_km <= 0:
            raise ConfigError("planet radius must be positive")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)


def quarter_degree_grid() -> GridSpec:
    """Quarter-degree global grid with the south pole row dropped."""
    return GridSpec(rows=720, cols=1440, north_lat=90.0, lat_step=0.25, lon_step=0.25)


def desk_grid() -> GridSpec:
    """Coarse grid sized for laptop-scale experiments."""
    return GridSpec(rows=40, cols=80, north_lat=90.0, lat_step=4.5, lon_step=4.5)


def latitudes(spec: GridSpec) -> np.ndarray:
    return spec.north_lat - np.arange(spec.rows) * spec.lat_step


def longitudes(spec: GridSpec) -> np.ndarray:
    return np.arange(spec.cols) * spec.lon_step


def latitude_weights(spec: GridSpec) -> np.ndarray:
    """Unnormalized area weights, cos of each row's latitude.

    Computed from the actual latitude of the row so every retained row gets
    a strictly positive weight (a row at the exact pole evaluates to the
    smallest positive cos representable there, not zero).
    """
    w = np.cos(np.radians(latitudes(spec)))
    if (w <= 0).any():
        raise ConfigError("nonpositive latitude weight; grid rows reach past a pole")
    return w


def row_circumference_km(spec: GridSpec) -> np.ndarray:
    """Length of each latitude circle, used to map wavenumbers to wavelengths."""
    return 2.0 * math.pi * spec.planet_radius_km * latitude_weights(spec)


# ---------------------------------------------------------------------------
# neighborhoods
# ---------------------------------------------------------------------------

def bump_starts(extent: int, window: int) -> np.ndarray:
    """Window start per center index: slide to fit, never shrink."""
    if window > extent:
        raise ConfigError(f"window {window} exceeds axis extent {extent}")
    half = (window - 1) // 2
    return np.clip(np.arange(extent) - half, 0, extent - window)


_NEIGHBOR_CACHE: dict = {}


def neighborhood(extents: tuple[int, int, int], window: tuple[int, int, int]) -> np.ndarray:
    """Flat neighbor table of shape (T, K) over a (depth, row, col) box.

    T = prod(extents), K = prod(window).  Depth and row use bumped windows,
    col wraps modulo the width.  Every token gets exactly K neighbors.
    """
    key = (tuple(extents), tuple(window))
    hit = _NEIGHBOR_CACHE.get(key)
    if hit is not None:
        return hit
    d, h, w = extents
    wd, wh, ww = window
    if ww > w:
        raise ConfigError(f"window {ww} exceeds axis extent {w}")
    d_idx = bump_starts(d, wd)[:, None] + np.arange(wd)[None, :]          # (D, wd)
    h_idx = bump_starts(h, wh)[:, None] + np.arange(wh)[None, :]          # (H, wh)
    w_idx = (np.arange(w)[:, None] + np.arange(ww)[None, :] - (ww - 1) // 2) % w  # (W, ww)
    flat = (d_idx[:, None, None, :, None, None] * (h * w)
            + h_idx[None, :, None, None, :, None] * w
            + w_idx[None, None, :, None, None, :])
    table = np.ascontiguousarray(flat.reshape(d * h * w, wd * wh * ww), dtype=np.int64)
    table.setflags(write=False)
    _NEIGHBOR_CACHE[key] = table
    return table


# ---------------------------------------------------------------------------
# static fields
# ---------------------------------------------------------------------------

def static_fields(spec: GridSpec) -> np.ndarray:
    """Deterministic per-cell surface descriptors, shape (7, rows, cols).

    Channels: sin(lat); cos(lat)sin(lon); cos(lat)cos(lon); a land mask; a
    soil class index scaled to [0,1]; topographic height; and an elevation
    roughness proxy.  The last four are smooth harmonics of position, so
    they are reproducible without any external data.
    """
    lat = np.radians(latitudes(spec))[:, None]
    lon = np.radians(longitudes(spec))[None, :]
    sin_lat = np.broadcast_to(np.sin(lat), spec.shape)
    cs = np.cos(lat) * np.sin(lon)
    cc = np.cos(lat) * np.cos(lon)
    continents = (np.sin(2 * lat + 0.7) * np.cos(3 * lon - 1.1)
                  + 0.5 * np.sin(5 * lon + 2 * lat)
                  + 0.3 * np.cos(lat * 4 - 0.3))
    land = (continents > 0.15).astype(np.float64)
    soil = np.floor(3.0 * (0.5 + 0.5 * np.sin(3 * lat - lon)))
    soil = np.clip(soil, 0, 2) / 2.0 * land
    topo = land * np.maximum(0.0, continents - 0.15) * (
        1.0 + 0.4 * np.sin(7 * lon) * np.cos(5 * lat))
    rough = land * np.abs(np.sin(9 * lon + 4 * lat)) * 0.5
    out = np.stack([
        sin_lat,
        cs,
        cc,
        np.broadcast_to(land, spec.shape),
        np.broadcast_to(soil, spec.shape),
        np.broadcast_to(topo, spec.shape),
        np.broadcast_to(rough, spec.shape),
    ]).astype(np.float64)
    return np.ascontiguousarray(out)
