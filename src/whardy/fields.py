"""Scalar and vector samples on a uniform cell-centered grid masked to a domain.

A vector field is a plain pair (x, y) of GridFunctions on one grid.

The grid carries the exact distance to the boundary at every cell center;
weighted norms are midpoint quadrature against powers of that distance.
Cells closer to the boundary than h/2 (the collar) are excluded from
quadrature, since negative powers of the distance blow up there; how many
cells that excludes is not yet reported.
"""

from __future__ import annotations

import contextlib
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


# Most cells of one grid: the unit square's decomposition grid at max level
# 12 has 4^13, about 4 GB with its centres, distances, mask and values.
MAX_GRID_CELLS = 4**13


def grid_dims(dom: PolygonalDomain, h: float, origin) -> tuple[int, int]:
    """Cells per axis of the grid from ``origin`` at cell size h that covers
    the domain's bounding box; at most MAX_GRID_CELLS in all."""
    hi = dom.bounding_box()[1]
    with np.errstate(over="ignore"):  # an infinite count is rejected below
        dims = np.ceil((hi - np.asarray(origin, dtype=float)) / h - 1e-12)
    if not dims.prod() <= MAX_GRID_CELLS:
        raise ParameterError(f"h = {h!r} needs a grid of {dims.prod():.3g} cells, more than "
                             f"the {MAX_GRID_CELLS} allowed")
    return int(dims[0]), int(dims[1])


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
    dist, edge = geometry.nearest_edges(dom, pts)
    mask = geometry.side_of_edges(dom, pts[:, 0], pts[:, 1], edge)
    mask &= dist > geometry.BOUNDARY_EPS
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
    """Fill values with fn(X, Y) evaluated at cell centers. A sample inside
    the domain that is not finite raises ParameterError."""
    c = grid.cell_centers()
    with np.errstate(all="ignore"):  # a non-finite sample is rejected below
        vals = np.asarray(fn(c[..., 0], c[..., 1]), dtype=float)
    vals = np.where(grid.mask, vals, 0.0)
    if not np.isfinite(vals).all():
        x, y = c[~np.isfinite(vals)][0].tolist()
        raise ParameterError(f"the sampled function is not finite at the cell centre "
                             f"({x!r}, {y!r})")
    return grid.with_values(vals)


# ---------------------------------------------------------------------------
# quadrature

# frexp exponents of finite floats run from -1073 (the least subnormal,
# 0.5 * 2^-1073) to 1024; one bucket each.
_EXP_MIN = -1073
_EXP_SPAN = 1024 - _EXP_MIN + 1


def _exact_sum(values) -> float:
    """The correctly rounded sum of ``values``: ``math.fsum``'s result bit
    for bit, without a list of Python floats.

    Each float is m 2^e with an integer mantissa m of at most 53 bits, cut
    into a high part of at most 26 bits and a low part of at most 27. Per
    block of ``geometry.BLOCK`` values the parts are added per exponent in
    float64, exactly, since no bucket then exceeds 2^43; the buckets then
    become one Python int, divided once by the scale, which rounds
    correctly. Zero sums are +0.0. A sum beyond the float range raises
    OverflowError; non-finite input goes to ``math.fsum`` itself.
    """
    v = np.asarray(values, dtype=float).ravel()
    if not np.isfinite(v).all():
        return math.fsum(v.tolist())
    hi = np.zeros(_EXP_SPAN, dtype=np.int64)
    lo = np.zeros(_EXP_SPAN, dtype=np.int64)
    for start in range(0, len(v), geometry.BLOCK):
        m, e = np.frexp(v[start:start + geometry.BLOCK])
        e -= _EXP_MIN
        m *= 2.0**26
        top = np.trunc(m)
        m -= top
        m *= 2.0**27  # the low 27 bits, as an integer
        hi += np.bincount(e, top, _EXP_SPAN).astype(np.int64)
        lo += np.bincount(e, m, _EXP_SPAN).astype(np.int64)
    # the int64 totals hold 2^20 blocks, far beyond MAX_GRID_CELLS
    total = 0
    for k in np.flatnonzero(hi | lo).tolist():
        total += ((int(hi[k]) << 27) + int(lo[k])) << k
    return total / (1 << (53 - _EXP_MIN))


def check_exponents(p: float, power: float) -> None:
    """Every weighted L^p quantity needs a finite p >= 1 and a finite weight power."""
    if not (math.isfinite(p) and p >= 1):
        raise ParameterError(f"p must be finite and >= 1, got {p!r}")
    if not math.isfinite(power):
        raise ParameterError(f"weight exponent must be finite (check beta), got {power!r}")


def distance_weight(dist: np.ndarray, power: float) -> np.ndarray:
    """The weight d^power of every weighted quantity, for boundary distances
    ``dist``. A weight that overflows raises ParameterError naming the
    exponent; weights that underflow to 0 are kept."""
    with np.errstate(over="ignore", divide="ignore"):
        w = dist ** power
    if w.size and not math.isfinite(w.max()):
        d = float(dist.flat[np.argmax(w)])
        raise ParameterError(f"weight exponent {power!r} overflows: d^({power!r}) is not finite "
                             f"at the boundary distance {d!r}")
    return w


def _abs_power(values: np.ndarray, p: float) -> np.ndarray:
    """|values|^p of every p-th power quantity. A power that overflows, or
    that is 0 at every nonzero value, raises ParameterError naming the
    exponent; powers that underflow to 0 at some values are kept, as
    weights are."""
    with np.errstate(over="ignore"):
        v = np.abs(values) ** p
    if v.size and not math.isfinite(v.max()):  # NaN and inf inputs pass through
        over = np.isinf(v) & np.isfinite(values)
        if over.any():
            raise ParameterError(f"|f|^{p!r} overflows at |f| = {abs(float(values[over][0]))!r}")
    if not v.any() and values.any():
        raise ParameterError(f"|f|^{p!r} underflows to 0 at every nonzero |f|")
    return v


def _weighted_sum(values: np.ndarray, dist: np.ndarray, power: float) -> float:
    """The correctly rounded sum of values d^power for boundary distances
    ``dist``, of the values alone at power 0 (see ``_checked_sum``)."""
    terms = values
    if power != 0.0:
        terms = distance_weight(dist, power)
        with np.errstate(over="ignore"):
            terms *= values
    return _checked_sum(terms, values, power)


def _checked_sum(terms: np.ndarray, values: np.ndarray, power: float) -> float:
    """The correctly rounded sum of ``terms``, the products of ``values`` and
    d^power. A term of finite factors, or the sum, that leaves the float
    range raises ParameterError naming the exponent; NaN and inf values
    pass through."""
    over = not np.isfinite(terms).all() and (np.isinf(terms) & np.isfinite(values)).any()
    if not over:
        with contextlib.suppress(OverflowError):
            return _exact_sum(terms)
    raise ParameterError(f"weight exponent {power!r} overflows: a term or sum weighted by "
                         f"d^({power!r}) leaves the float range")


def _weighted_mean(f: GridFunction, power: float) -> float:
    """The d^power-weighted mean of f over its quadrature cells; both sums
    take one weight array."""
    sel = f.quad_mask
    if not sel.any():
        raise ParameterError("empty quadrature mask")
    values = f.values[sel]
    weight, terms = np.broadcast_to(1.0, values.shape), values
    if power != 0.0:
        weight = distance_weight(f.dist[sel], power)
        with np.errstate(over="ignore"):
            terms = weight * values
    denom = _checked_sum(weight, weight, power)
    if denom == 0.0:
        raise ParameterError("zero total weight")
    return _checked_sum(terms, values, power) / denom


def weighted_lp_norm(f: GridFunction, p: float, power: float = 0.0) -> float:
    """(sum |f|^p d^power h^n)^(1/p) over quadrature cells.

    ``power`` is the full exponent applied to the boundary distance.
    """
    check_exponents(p, power)
    sel = f.quad_mask
    if not sel.any():
        raise ParameterError("empty quadrature mask")
    total = _weighted_sum(_abs_power(f.values[sel], p), f.dist[sel], power)
    scaled = total * f.h * f.h
    if math.isinf(scaled) and math.isfinite(total):
        raise ParameterError(f"the L^{p!r} norm with weight d^({power!r}) leaves the float "
                             f"range: its sum times h^2 = {f.h!r}^2 is not finite")
    return scaled ** (1.0 / p)


def weighted_integral(f: GridFunction, power: float = 0.0) -> float:
    """sum f d^power h^n over quadrature cells (signed)."""
    sel = f.quad_mask
    return _weighted_sum(f.values[sel], f.dist[sel], power) * f.h * f.h


def weighted_mean_zero(f: GridFunction, p: float, beta: float) -> GridFunction:
    """Subtract the d^(beta p)-weighted mean so the weighted integral vanishes."""
    power = beta * p
    check_exponents(p, power)
    c = _weighted_mean(f, power)
    return f.with_values(np.where(f.mask, f.values - c, 0.0))


# ---------------------------------------------------------------------------
# differences


def gradient(f: GridFunction) -> tuple[GridFunction, GridFunction]:
    """The partials (df/dx, df/dy) on f's grid.

    Central differences where both axis neighbors are masked, one-sided
    where one is; output cells keep the mask only if every axis has at least
    one masked neighbor."""
    def neighbors(a, axis):
        """(a one cell back, a one cell ahead) along ``axis``, 0 past the grid."""
        prev, nxt = np.zeros_like(a), np.zeros_like(a)
        p, q, s = (np.moveaxis(b, axis, 0) for b in (prev, nxt, a))
        p[1:], q[:-1] = s[:-1], s[1:]
        return prev, nxt

    out_mask = f.mask.copy()
    comps = []
    v = np.where(f.mask, f.values, 0.0)
    for axis in range(2):
        prev_m, next_m = neighbors(f.mask, axis)
        prev_v, next_v = neighbors(v, axis)
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


def _binary_artifact(header: dict, dtype: str, count: int) -> tuple[bytearray, np.ndarray]:
    """The buffer of ``header`` as a sorted-key JSON line, then ``count`` items of
    ``dtype``, and a writable view of the items: a dump fills them in place."""
    line = json.dumps(header, sort_keys=True).encode() + b"\n"
    out = bytearray(len(line) + count * np.dtype(dtype).itemsize)
    out[:len(line)] = line
    return out, np.frombuffer(out, dtype=dtype, offset=len(line))


def dump_grid(f: GridFunction) -> bytearray:
    """A JSON header line (h, origin, dims, the mask as alternating run
    lengths), then the values as little-endian float64, row-major."""
    flat = f.mask.ravel()
    ends = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    runs = np.diff(ends, prepend=0, append=flat.size).tolist()
    out, body = _binary_artifact({"h": f.h, "origin": list(f.origin), "dims": list(f.dims),
                                  "mask_first": bool(flat[0]), "mask_rle": runs},
                                 "<f8", flat.size)
    body[:] = f.values.ravel()
    return out


def load_grid(data: bytes, dom: PolygonalDomain) -> GridFunction:
    """The grid function of ``dump_grid``'s bytes, on the domain ``dom``."""
    end = data.index(b"\n")
    header = json.loads(data[:end])
    dims = tuple(header["dims"])
    values = np.frombuffer(data, dtype="<f8", offset=end + 1).reshape(dims).copy()
    runs = header["mask_rle"]
    # runs alternate, starting with mask_first
    flat = np.repeat((np.arange(len(runs)) % 2 == 0) == header["mask_first"], runs)
    g = make_grid(dom, header["h"], origin=tuple(header["origin"]))
    if not np.array_equal(g.mask, flat.reshape(dims)):
        raise ParameterError("stored mask inconsistent with domain")
    return g.with_values(values)
