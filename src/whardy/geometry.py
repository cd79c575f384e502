"""Planar test domains given as simple polygons.

A domain is an open region bounded by a counter-clockwise simple polygon.
All geometric predicates (containment, distance to the boundary, boundary
sampling) are evaluated against the exact edge segments, so there is no
tolerance cascade coming from an approximate boundary representation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError

# Points within this distance of an edge count as boundary, hence outside
# the open domain.
BOUNDARY_EPS = 1e-12

PRESETS = ("unit_square", "l_shape", "slit_square", "koch_prefractal")
# 3 * 4^9 = 786,432 vertices, built in a Python loop in about 10 s; each
# level beyond multiplies both by four
MAX_KOCH_LEVEL = 9


@dataclass(frozen=True)
class PolygonalDomain:
    """Simple closed polygon, vertices ordered counter-clockwise."""

    vertices: np.ndarray
    name: str = "polygon"
    _edges: np.ndarray = field(init=False, repr=False, compare=False)
    # Edges per y-slab over each edge's half-open range [ylo, yhi): exactly
    # the edges a rightward ray from a point of that y can cross.
    _parity_slabs: SlabIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
            raise ParameterError("polygon needs at least 3 planar vertices")
        if not np.all(np.isfinite(verts)):
            raise ParameterError("polygon vertices must be finite")
        object.__setattr__(self, "vertices", verts)
        edges = np.stack([verts, np.roll(verts, -1, axis=0)], axis=1)
        object.__setattr__(self, "_edges", edges)
        if signed_area(verts) <= 0:
            raise ParameterError("polygon must be counter-clockwise (signed area > 0)")
        if not _is_simple(edges):
            raise ParameterError("polygon edges may intersect only at shared endpoints")
        ylo, yhi = edges[:, :, 1].min(axis=1), edges[:, :, 1].max(axis=1)
        object.__setattr__(self, "_parity_slabs", SlabIndex.build(ylo, yhi))

    @property
    def edges(self) -> np.ndarray:
        """Edges as an (E, 2, 2) array of segment endpoints."""
        return self._edges

    @property
    def n_edges(self) -> int:
        return len(self.vertices)

    def bounding_box(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)


def signed_area(vertices) -> float:
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def perimeter(dom: PolygonalDomain) -> float:
    d = dom.edges[:, 1] - dom.edges[:, 0]
    return float(np.hypot(d[:, 0], d[:, 1]).sum())


def centroid(dom: PolygonalDomain) -> np.ndarray:
    """Area centroid of the polygon."""
    v = dom.vertices
    w = np.roll(v, -1, axis=0)
    cross = v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]
    area = cross.sum() / 2.0
    cx = ((v[:, 0] + w[:, 0]) * cross).sum() / (6.0 * area)
    cy = ((v[:, 1] + w[:, 1]) * cross).sum() / (6.0 * area)
    return np.array([cx, cy])


def _orient(a, b, c):
    return (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) - (
        b[..., 1] - a[..., 1]
    ) * (c[..., 0] - a[..., 0])


def index_ranges(starts, counts) -> np.ndarray:
    """The index ranges [starts[k], starts[k] + counts[k]), concatenated."""
    return np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


def _is_simple(edges) -> bool:
    """Whether no two edges meet except adjacent ones at their shared vertex.

    Only edges whose closed bounding boxes overlap can meet; those pairs
    come from one sort-and-sweep over the x extents. A proper crossing, or
    an endpoint of one edge lying on the other (collinear overlap or
    touching), rejects the polygon unless the pair is adjacent and that
    endpoint is the shared vertex.
    """
    n = len(edges)
    blo, bhi = edges.min(axis=1), edges.max(axis=1)
    order = np.argsort(blo[:, 0], kind="stable")
    end = np.searchsorted(blo[order, 0], bhi[order, 0], side="right")
    later = end - np.arange(1, n + 1)  # x-overlapping edges after each in x order
    u = order[np.repeat(np.arange(n), later)]
    v = order[index_ranges(np.arange(1, n + 1), later)]
    y_meet = (blo[u, 1] <= bhi[v, 1]) & (blo[v, 1] <= bhi[u, 1])
    i, j = np.minimum(u, v)[y_meet], np.maximum(u, v)[y_meet]
    a, b, c, d = edges[i, 0], edges[i, 1], edges[j, 0], edges[j, 1]
    d1, d2 = _orient(a, b, c), _orient(a, b, d)
    d3, d4 = _orient(c, d, a), _orient(c, d, b)
    if ((d1 * d2 < 0) & (d3 * d4 < 0)).any():
        return False
    on = [
        (d1 == 0) & _on_segment(a, b, c),
        (d2 == 0) & _on_segment(a, b, d),
        (d3 == 0) & _on_segment(c, d, a),
        (d4 == 0) & _on_segment(c, d, b),
    ]
    succ = j == i + 1
    adj = succ | ((i == 0) & (j == n - 1))  # successor, or the wrap-around
    if ((on[0] | on[1] | on[2] | on[3]) & ~adj).any():
        return False
    shared = np.where(succ[:, None], b, a)
    return not any((touch & adj & (pt != shared).any(axis=1)).any()
                   for touch, pt in zip(on, (c, d, a, b)))


def _on_segment(a, b, pts):
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    return np.all((pts >= lo) & (pts <= hi), axis=-1)


# ---------------------------------------------------------------------------
# presets


def make_domain(preset: str, level: int = 0, side: float = 1.0,
                aperture: float | None = None) -> PolygonalDomain:
    """Build one of the named test domains.

    ``level`` is the prefractal generation (koch_prefractal only, at most
    ``MAX_KOCH_LEVEL``) and
    ``side`` the base edge length. ``aperture`` sets the notch opening of
    the slit square (default 1e-3 * side).
    """
    if side <= 0 or not math.isfinite(side):
        raise ParameterError("side must be positive")
    if preset == "unit_square":
        v = side * np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        return PolygonalDomain(v, name="unit_square")
    if preset == "l_shape":
        v = side * np.array(
            [[0, 0], [1, 0], [1, 0.5], [0.5, 0.5], [0.5, 1], [0, 1]], dtype=float
        )
        return PolygonalDomain(v, name="l_shape")
    if preset == "slit_square":
        # Zero-angle slit approximated by a thin triangular notch reaching
        # the center from the top edge; notch domains remain John.
        a = 1e-3 * side if aperture is None else float(aperture)
        if not 0 < a < side / 2:
            raise ParameterError("slit aperture out of range")
        v = np.array(
            [
                [0, 0],
                [side, 0],
                [side, side],
                [side / 2 + a / 2, side],
                [side / 2, side / 2],
                [side / 2 - a / 2, side],
                [0, side],
            ]
        )
        return PolygonalDomain(v, name="slit_square")
    if preset == "koch_prefractal":
        if not (0 <= level <= MAX_KOCH_LEVEL and int(level) == level):
            raise ParameterError(
                f"koch_prefractal level must be an integer from 0 to {MAX_KOCH_LEVEL} "
                f"(level k has 3 * 4^k vertices), got {level!r}")
        return PolygonalDomain(_koch_vertices(int(level), side),
                               name=f"koch_prefractal_{int(level)}")
    raise ParameterError(f"unknown preset {preset!r}")


def _koch_vertices(level: int, side: float) -> np.ndarray:
    # Base triangle, counter-clockwise; outward bumps keep the orientation.
    pts = [0.0 + 0.0j, side + 0.0j, side / 2 + side * math.sqrt(3) / 2 * 1j]
    rot = complex(math.cos(-math.pi / 3), math.sin(-math.pi / 3))
    for _ in range(level):
        nxt = []
        for i, p1 in enumerate(pts):
            p2 = pts[(i + 1) % len(pts)]
            s1 = p1 + (p2 - p1) / 3.0
            s2 = p1 + 2.0 * (p2 - p1) / 3.0
            tip = (s2 - s1) * rot + s1
            nxt.extend([p1, s1, tip, s2])
        pts = nxt
    return np.array([[p.real, p.imag] for p in pts])


# ---------------------------------------------------------------------------
# predicates

# Pairs of (point, edge) evaluated per numpy pass; bounds the temporaries.
PAIR_CHUNK = 1 << 18


def point_segment_dist_sq(px, py, ax, ay, dx, dy, ab2):
    """Squared distance of points to segments a + t d, t in [0, 1], elementwise.

    ``ab2`` is d . d with zero-length segments mapped to 1; see
    ``segment_parts``. Every point-to-edge distance in the package runs
    through this kernel, so the same pair always gives the same float.
    """
    apx, apy = px - ax, py - ay
    t = np.clip((apx * dx + apy * dy) / ab2, 0.0, 1.0)
    ex, ey = apx - t * dx, apy - t * dy
    return ex * ex + ey * ey


def segment_parts(a, b):
    """(ax, ay, dx, dy, ab2) of segments [a, b] given as (..., 2) endpoints."""
    ax, ay = a[..., 0], a[..., 1]
    dx, dy = b[..., 0] - ax, b[..., 1] - ay
    ab2 = dx * dx + dy * dy
    return ax, ay, dx, dy, np.where(ab2 == 0, 1.0, ab2)


def boundary_distances(dom: PolygonalDomain, points) -> np.ndarray:
    """Distance to the polygon boundary for an (M, 2) array of points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.empty(len(pts))
    parts = segment_parts(dom.edges[:, 0], dom.edges[:, 1])
    chunk = max(1, PAIR_CHUNK // dom.n_edges)
    for i in range(0, len(pts), chunk):
        p = pts[i : i + chunk]
        d2 = point_segment_dist_sq(p[:, 0:1], p[:, 1:2], *parts)
        out[i : i + chunk] = np.sqrt(d2.min(axis=1))
    return out


def distance_to_boundary(dom: PolygonalDomain, x) -> float:
    """Exact distance of a point to the polygon boundary (0 iff on it)."""
    return float(boundary_distances(dom, np.asarray(x, dtype=float)[None, :])[0])


@dataclass(frozen=True)
class SlabIndex:
    """Edges by horizontal slab, for queries that only need nearby edges.

    ``breaks`` holds the sorted distinct ends of the edges' y-ranges; slab
    k >= 1 is [breaks[k - 1], breaks[k]), slab 0 lies below and slab
    len(breaks) above every range, and both are empty. ``edges[ptr[k]:ptr[k
    + 1]]`` are, in increasing order, the edges whose half-open range
    [ylo, yhi) covers slab k, so a y lies in an edge's range iff the edge is
    listed for the slab of y.
    """

    breaks: np.ndarray
    ptr: np.ndarray
    edges: np.ndarray

    @classmethod
    def build(cls, ylo, yhi) -> SlabIndex:
        breaks = np.unique(np.concatenate([ylo, yhi]))
        first = np.searchsorted(breaks, ylo) + 1  # slab starting at ylo
        counts = np.searchsorted(breaks, yhi) + 1 - first
        slab = index_ranges(first, counts)
        edge = np.repeat(np.arange(len(ylo)), counts)
        order = np.argsort(slab, kind="stable")
        ptr = np.searchsorted(slab[order], np.arange(len(breaks) + 2))
        return cls(breaks, ptr, edge[order])

    def chunks(self, ys):
        """Yield ``(start, stop, owner, edge)`` over consecutive runs of
        ``ys``: the (point, edge) pairs of the run's slabs, at most
        PAIR_CHUNK of them unless one point alone has more, with ``owner``
        counted from ``start``."""
        slab = np.searchsorted(self.breaks, ys, side="right")
        first, counts = self.ptr[slab], np.diff(self.ptr)[slab]
        ends = np.cumsum(counts)
        start = 0
        while start < len(ys):
            base = ends[start - 1] if start else 0
            stop = max(start + 1, int(np.searchsorted(ends, base + PAIR_CHUNK, side="right")))
            c = counts[start:stop]
            yield (start, stop, np.repeat(np.arange(stop - start), c),
                   self.edges[index_ranges(first[start:stop], c)])
            start = stop


def _ray_parity(dom: PolygonalDomain, px, py) -> np.ndarray:
    """Whether a rightward ray from each point crosses the boundary an odd
    number of times; visits only the edges of the point's slab."""
    v = dom.vertices
    w = np.roll(v, -1, axis=0)
    crossings = np.zeros(len(px), dtype=np.int64)
    for start, stop, owner, e in dom._parity_slabs.chunks(py):
        o = owner + start
        xin = (w[e, 0] - v[e, 0]) * (py[o] - v[e, 1]) / (w[e, 1] - v[e, 1]) + v[e, 0]
        crossings[start:stop] = np.bincount(owner[px[o] < xin], minlength=stop - start)
    return crossings % 2 == 1


def contains_many(dom: PolygonalDomain, points, dist=None) -> np.ndarray:
    """Open containment by ray-casting parity; near-boundary points excluded.

    A point is inside when a rightward ray crosses the boundary an odd
    number of times and its distance ``dist`` (``boundary_distances`` when
    not given) exceeds BOUNDARY_EPS.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if dist is None:
        dist = boundary_distances(dom, pts)
    return _ray_parity(dom, pts[:, 0], pts[:, 1]) & (np.asarray(dist) > BOUNDARY_EPS)


def contains(dom: PolygonalDomain, x) -> bool:
    return bool(contains_many(dom, np.asarray(x, dtype=float)[None, :])[0])


def sample_boundary(dom: PolygonalDomain, count: int) -> np.ndarray:
    """Points equispaced in arc length along the boundary, starting at vertex 0."""
    if count < 1:
        raise ParameterError("count must be >= 1")
    e = dom.edges
    seg = e[:, 1] - e[:, 0]
    lens = np.hypot(seg[:, 0], seg[:, 1])
    cum = np.concatenate([[0.0], np.cumsum(lens)])
    total = cum[-1]
    s = np.arange(count) * (total / count)
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(lens) - 1)
    t = (s - cum[idx]) / lens[idx]
    return e[idx, 0] + t[:, None] * seg[idx]


def box_inside_domain(dom: PolygonalDomain, lo, hi) -> bool:
    """Whether the closed axis-aligned box [lo, hi] lies inside the open domain.

    True iff no edge meets the box widened by BOUNDARY_EPS on every side and
    the box centre has odd ray parity. An edge-free box lies wholly on one
    side of the boundary, so its centre decides; boxes touching the boundary
    are excluded.
    """
    lo = np.asarray(lo, dtype=float)[None, :]
    hi = np.asarray(hi, dtype=float)[None, :]
    return bool(boxes_inside_domain(dom, lo, hi)[0])


def boxes_inside_domain(dom: PolygonalDomain, los, his) -> np.ndarray:
    """Vectorized box_inside_domain over (M, 2) arrays of box corners."""
    los = np.asarray(los, dtype=float)
    his = np.asarray(his, dtype=float)
    mid = (los + his) / 2.0
    out = _ray_parity(dom, mid[:, 0], mid[:, 1])
    idx = np.flatnonzero(out)
    p, q = dom.edges[None, :, 0], dom.edges[None, :, 1]
    chunk = max(1, PAIR_CHUNK // dom.n_edges)
    for k in range(0, len(idx), chunk):
        sel = idx[k : k + chunk]
        lo, hi = los[sel, None] - BOUNDARY_EPS, his[sel, None] + BOUNDARY_EPS
        out[sel] = ~segments_meet_boxes(p, q, lo, hi).any(axis=1)
    return out


def segments_meet_boxes(p, q, lo, hi) -> np.ndarray:
    """Whether segments [p, q] meet closed boxes [lo, hi], by Liang-Barsky
    clipping; the (..., 2) arguments broadcast against each other."""
    d = q - p
    shape = np.broadcast_shapes(p.shape, q.shape, lo.shape, hi.shape)[:-1]
    t0 = np.zeros(shape)
    t1 = np.ones(shape)
    alive = np.ones(shape, dtype=bool)
    for axis in range(2):
        p0, dd = p[..., axis], d[..., axis]
        for sign, bound in ((-1.0, lo[..., axis]), (1.0, hi[..., axis])):
            num = sign * (bound - p0)
            den = sign * dd
            par = den == 0
            alive &= ~(par & (num < 0))
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.where(par, 0.0, num / den)
            ent = ~par & (den < 0)
            ext = ~par & (den > 0)
            t0 = np.where(ent, np.maximum(t0, t), t0)
            t1 = np.where(ext, np.minimum(t1, t), t1)
    return alive & (t0 <= t1)


# ---------------------------------------------------------------------------
# serialization


def domain_to_json(dom: PolygonalDomain) -> str:
    return json.dumps(
        {"name": dom.name, "vertices": dom.vertices.tolist()}, sort_keys=True
    )


def domain_from_json(text: str) -> PolygonalDomain:
    obj = json.loads(text)
    return PolygonalDomain(np.asarray(obj["vertices"], dtype=float), name=obj["name"])
