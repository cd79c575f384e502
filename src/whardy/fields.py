"""Scalar and vector samples on a uniform cell-centered grid masked to a domain.

A vector field is a plain pair (x, y) of GridFunctions on one grid.

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
    # (nx, ny) Whitney cube id per cell, -1 in the uncovered collar; set by
    # decomp.decomposition_grid
    assignment: np.ndarray | None = None

    @property
    def collar_count(self) -> int:
        """Masked cells excluded from quadrature because dist < h/2."""
        return int((self.mask & (self.dist < self.h / 2.0)).sum())

    @property
    def quad_mask(self) -> np.ndarray:
        return self.mask & (self.dist >= self.h / 2.0)

    @property
    def covered(self) -> np.ndarray:
        """Cells owned by a Whitney cube."""
        if self.assignment is None:
            raise ParameterError("grid has no cube ids: build it with decomposition_grid(tree)")
        return self.assignment >= 0

    def cell_centers(self) -> np.ndarray:
        """(nx, ny, 2) coordinates of every cell centre."""
        return _all_cell_centers(self.h, self.origin, self.dims)

    def with_values(self, values: np.ndarray) -> "GridFunction":
        v = np.asarray(values, dtype=float)
        if v.shape != tuple(self.dims):
            raise ParameterError("values shape does not match grid dims")
        return replace(self, values=v)


def cell_center_xy(h: float, origin, i, j) -> tuple:
    """x and y of the centres of the cells (i, j) of the grid from ``origin``
    at cell size h."""
    return origin[0] + (i + 0.5) * h, origin[1] + (j + 0.5) * h


def _all_cell_centers(h: float, origin, dims) -> np.ndarray:
    xy = cell_center_xy(h, origin, *np.indices(dims, sparse=True))
    return np.stack(np.broadcast_arrays(*xy), axis=-1)


def grid_dims(dom: PolygonalDomain, h: float, origin) -> tuple[int, int]:
    """Cells per axis of the grid from ``origin`` at cell size h that covers
    the domain's bounding box."""
    hi = dom.bounding_box()[1]
    return (
        int(math.ceil((hi[0] - origin[0]) / h - 1e-12)),
        int(math.ceil((hi[1] - origin[1]) / h - 1e-12)),
    )


def make_grid(dom: PolygonalDomain, h: float, origin=None) -> GridFunction:
    """Empty grid function covering the domain bounding box at cell size h,
    from ``origin`` (default: the box's low corner)."""
    if not (math.isfinite(h) and h > 0):
        raise ParameterError(f"h must be positive and finite, got {h!r}")
    if origin is None:
        lo = dom.bounding_box()[0]
        origin = (float(lo[0]), float(lo[1]))
    dims = grid_dims(dom, h, origin)
    pts = _all_cell_centers(h, origin, dims).reshape(-1, 2)
    dist = geometry.boundary_distances(dom, pts)
    mask = geometry.contains_many(dom, pts, dist=dist)
    return GridFunction(
        h=float(h),
        origin=(float(origin[0]), float(origin[1])),
        dims=dims,
        values=np.zeros(dims),
        mask=mask.reshape(dims),
        domain=dom,
        dist=dist.reshape(dims),
    )


def sample_function(grid: GridFunction, fn) -> GridFunction:
    """Fill values with fn(X, Y) evaluated at cell centers."""
    c = grid.cell_centers()
    vals = np.asarray(fn(c[..., 0], c[..., 1]), dtype=float)
    vals = np.where(grid.mask, vals, 0.0)
    return grid.with_values(vals)


# ---------------------------------------------------------------------------
# quadrature


def check_exponents(p: float, power: float) -> None:
    """Every weighted L^p quantity needs a finite p >= 1 and a finite weight power."""
    if not (math.isfinite(p) and p >= 1):
        raise ParameterError(f"p must be finite and >= 1, got {p!r}")
    if not math.isfinite(power):
        raise ParameterError(f"weight exponent must be finite (check beta), got {power!r}")


def weighted_lp_norm(f: GridFunction, p: float, power: float = 0.0) -> float:
    """(sum |f|^p d^power h^n)^(1/p) over quadrature cells.

    ``power`` is the full exponent applied to the boundary distance.
    """
    check_exponents(p, power)
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
    check_exponents(p, power)
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


def gradient(f: GridFunction) -> tuple[GridFunction, GridFunction]:
    """The partials (df/dx, df/dy) on f's grid.

    Central differences where both axis neighbors are masked, one-sided
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
    base = replace(f, values=comps[0], mask=out_mask)
    return base, base.with_values(comps[1])


def gradient_norm(*fs: GridFunction) -> GridFunction:
    """sqrt of the summed squared partials of the fields ``fs``, which share
    one grid and mask; masked as their gradients."""
    partials = [d for f in fs for d in gradient(f)]
    return partials[0].with_values(np.sqrt(sum(d.values**2 for d in partials)))


# ---------------------------------------------------------------------------
# binary dump


def dump_grid(f: GridFunction, path) -> None:
    flat = f.mask.ravel()
    ends = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    runs = np.diff(ends, prepend=0, append=flat.size).tolist()
    header = json.dumps(
        {
            "h": f.h,
            "origin": list(f.origin),
            "dims": list(f.dims),
            "mask_first": bool(flat[0]),
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
    runs = header["mask_rle"]
    # runs alternate, starting with mask_first
    flat = np.repeat((np.arange(len(runs)) % 2 == 0) == header["mask_first"], runs)
    g = make_grid(dom, header["h"], origin=tuple(header["origin"]))
    if not np.array_equal(g.mask, flat.reshape(dims)):
        raise ParameterError("stored mask inconsistent with domain")
    return g.with_values(values)
