"""Scalar and vector samples on a uniform cell-centered grid masked to a domain.

The grid carries the exact distance to the boundary at every cell center;
weighted norms are midpoint quadrature against powers of that distance.
Cells closer to the boundary than h/2 are excluded from quadrature and
counted, since negative powers of the distance blow up in the collar and
the error budget there is reported rather than hidden.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import geometry
from .errors import ParameterError
from .geometry import PolygonalDomain


@dataclass(frozen=True)
class GridFunction:
    h: float
    origin: tuple[float, float]
    dims: tuple[int, int]
    values: np.ndarray  # (nx, ny)
    mask: np.ndarray  # (nx, ny) bool, True where the center is inside
    domain: PolygonalDomain
    dist: np.ndarray  # boundary distance at cell centers
    frame_offset: tuple | None = None  # grid cell (0,0) in frame-lattice cells

    @property
    def collar_count(self) -> int:
        """Masked cells excluded from quadrature because dist < h/2."""
        return int((self.mask & (self.dist < self.h / 2.0)).sum())

    @property
    def quad_mask(self) -> np.ndarray:
        return self.mask & (self.dist >= self.h / 2.0)

    def cell_centers(self) -> np.ndarray:
        nx, ny = self.dims
        xs = self.origin[0] + (np.arange(nx) + 0.5) * self.h
        ys = self.origin[1] + (np.arange(ny) + 0.5) * self.h
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        return np.stack([X, Y], axis=-1)

    def with_values(self, values: np.ndarray) -> "GridFunction":
        v = np.asarray(values, dtype=float)
        if v.shape != tuple(self.dims):
            raise ParameterError("values shape does not match grid dims")
        return replace(self, values=v)


@dataclass(frozen=True)
class VectorFieldGrid:
    components: tuple

    def __post_init__(self):
        g0 = self.components[0]
        for g in self.components[1:]:
            if (
                g.h != g0.h
                or g.dims != g0.dims
                or g.origin != g0.origin
                or not np.array_equal(g.mask, g0.mask)
            ):
                raise ParameterError("vector components must share one grid")

    @property
    def grid(self) -> GridFunction:
        return self.components[0]


def make_grid(dom: PolygonalDomain, h: float, origin=None, dims=None) -> GridFunction:
    """Empty grid function covering the domain bounding box at cell size h."""
    if not (math.isfinite(h) and h > 0):
        raise ParameterError(f"h must be positive and finite, got {h!r}")
    lo, hi = dom.bounding_box()
    if origin is None:
        origin = (float(lo[0]), float(lo[1]))
    if dims is None:
        dims = (
            int(math.ceil((hi[0] - origin[0]) / h - 1e-12)),
            int(math.ceil((hi[1] - origin[1]) / h - 1e-12)),
        )
    nx, ny = dims
    xs = origin[0] + (np.arange(nx) + 0.5) * h
    ys = origin[1] + (np.arange(ny) + 0.5) * h
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    dist = geometry.boundary_distances(dom, pts)
    mask = geometry.contains_many(dom, pts, dist=dist)
    return GridFunction(
        h=float(h),
        origin=(float(origin[0]), float(origin[1])),
        dims=(nx, ny),
        values=np.zeros((nx, ny)),
        mask=mask.reshape(nx, ny),
        domain=dom,
        dist=dist.reshape(nx, ny),
    )


def sample_function(grid: GridFunction, fn) -> GridFunction:
    """Fill values with fn(X, Y) evaluated at cell centers."""
    c = grid.cell_centers()
    vals = np.asarray(fn(c[..., 0], c[..., 1]), dtype=float)
    vals = np.where(grid.mask, vals, 0.0)
    return grid.with_values(vals)


# ---------------------------------------------------------------------------
# quadrature


def weighted_lp_norm(f: GridFunction, p: float, power: float = 0.0) -> float:
    """(sum |f|^p d^power h^n)^(1/p) over quadrature cells.

    ``power`` is the full exponent applied to the boundary distance.
    """
    if p < 1:
        raise ParameterError("p must be >= 1")
    sel = f.quad_mask
    if not sel.any():
        raise ParameterError("empty quadrature mask")
    v = np.abs(f.values[sel]) ** p
    if power != 0.0:
        v = v * f.dist[sel] ** power
    total = math.fsum(v.tolist()) * f.h * f.h
    return total ** (1.0 / p)


def weighted_integral(f: GridFunction, power: float = 0.0) -> float:
    """sum f d^power h^n over quadrature cells (signed)."""
    sel = f.quad_mask
    v = f.values[sel]
    if power != 0.0:
        v = v * f.dist[sel] ** power
    return math.fsum(v.tolist()) * f.h * f.h


def weighted_mean_zero(f: GridFunction, p: float, beta: float) -> GridFunction:
    """Subtract the d^(beta p)-weighted mean so the weighted integral vanishes."""
    power = beta * p
    sel = f.quad_mask
    if not sel.any():
        raise ParameterError("empty quadrature mask")
    w = f.dist[sel] ** power
    denom = math.fsum(w.tolist())
    if denom == 0.0:
        raise ParameterError("zero total weight")
    c = math.fsum((f.values[sel] * w).tolist()) / denom
    vals = np.where(f.mask, f.values - c, 0.0)
    return f.with_values(vals)


# ---------------------------------------------------------------------------
# differences


def gradient(f: GridFunction) -> VectorFieldGrid:
    """Central differences where both axis neighbors are masked, one-sided
    where one is; output cells keep the mask only if every axis has at least
    one masked neighbor."""
    out_mask = f.mask.copy()
    comps = []
    v = np.where(f.mask, f.values, 0.0)
    for axis in range(2):
        m = f.mask
        prev_m = np.zeros_like(m)
        next_m = np.zeros_like(m)
        prev_v = np.zeros_like(v)
        next_v = np.zeros_like(v)
        if axis == 0:
            prev_m[1:, :] = m[:-1, :]
            next_m[:-1, :] = m[1:, :]
            prev_v[1:, :] = v[:-1, :]
            next_v[:-1, :] = v[1:, :]
        else:
            prev_m[:, 1:] = m[:, :-1]
            next_m[:, :-1] = m[:, 1:]
            prev_v[:, 1:] = v[:, :-1]
            next_v[:, :-1] = v[:, 1:]
        central = prev_m & next_m
        fwd = next_m & ~prev_m
        bwd = prev_m & ~next_m
        d = np.zeros_like(v)
        d[central] = (next_v[central] - prev_v[central]) / (2.0 * f.h)
        d[fwd] = (next_v[fwd] - v[fwd]) / f.h
        d[bwd] = (v[bwd] - prev_v[bwd]) / f.h
        out_mask &= prev_m | next_m
        comps.append(d)
    comps = [np.where(out_mask, d, 0.0) for d in comps]
    base = GridFunction(
        h=f.h,
        origin=f.origin,
        dims=f.dims,
        values=comps[0],
        mask=out_mask,
        domain=f.domain,
        dist=f.dist,
    )
    return VectorFieldGrid((base, base.with_values(comps[1])))


# ---------------------------------------------------------------------------
# binary dump


def _rle(mask_flat: np.ndarray):
    runs = []
    cur = bool(mask_flat[0])
    n = 0
    for b in mask_flat:
        if bool(b) == cur:
            n += 1
        else:
            runs.append(n)
            cur = not cur
            n = 1
    runs.append(n)
    return bool(mask_flat[0]), runs


def dump_grid(f: GridFunction, path) -> None:
    first, runs = _rle(f.mask.ravel())
    header = json.dumps(
        {
            "h": f.h,
            "origin": list(f.origin),
            "dims": list(f.dims),
            "mask_first": first,
            "mask_rle": runs,
        },
        sort_keys=True,
    )
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def load_grid(path, dom: PolygonalDomain) -> GridFunction:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        raw = fh.read()
    dims = tuple(header["dims"])
    values = np.frombuffer(raw, dtype="<f8").reshape(dims).copy()
    flat = np.empty(dims[0] * dims[1], dtype=bool)
    pos, cur = 0, header["mask_first"]
    for run in header["mask_rle"]:
        flat[pos : pos + run] = cur
        pos += run
        cur = not cur
    g = make_grid(dom, header["h"], origin=tuple(header["origin"]), dims=dims)
    if not np.array_equal(g.mask, flat.reshape(dims)):
        raise ParameterError("stored mask inconsistent with domain")
    return g.with_values(values)
