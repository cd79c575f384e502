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

# Largest |coordinate| of a polygon vertex: squared distances between
# points of its Whitney frame then stay below about 4e301, so they cannot
# overflow to inf and NaN.
COORD_LIMIT = 1e150
# Elements per vectorized temporary of every blocked pass. Callers read it
# as ``geometry.BLOCK`` at call time, never by value, so one setting reaches
# every pass; temporaries of this many floats stay in cache (2^18-pair
# tiles ran about 1.5x slower).
BLOCK = 1 << 16
# 3 * 4^9 = 786,432 vertices, built in about 3 s on 2 cores: 0.7 s for the
# vertices and 2.3 s for PolygonalDomain's checks, most of it _is_simple, at
# a 200 MB peak RSS, set by the vertex loop's Python complexes. The domain
# holds 24 MiB of edges and peaks at 75 MiB under tracemalloc while built
# (_is_simple: 53 MB). Each level beyond multiplies the vertices by four.
MAX_KOCH_LEVEL = 9


@dataclass(frozen=True)
class PolygonalDomain:
    """Simple closed polygon, vertices ordered counter-clockwise."""

    vertices: np.ndarray
    name: str = "polygon"
    _edges: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
            raise ParameterError("polygon needs at least 3 planar vertices")
        if not np.all(np.isfinite(verts)):
            raise ParameterError("polygon vertices must be finite")
        if np.abs(verts).max() > COORD_LIMIT:
            raise ParameterError(
                f"polygon coordinates must lie within +-{COORD_LIMIT:g}: squared "
                "distances would overflow")
        object.__setattr__(self, "vertices", verts)
        edges = np.stack([verts, np.roll(verts, -1, axis=0)], axis=1)
        object.__setattr__(self, "_edges", edges)
        area = signed_area(verts)
        if area == 0:
            raise ParameterError("polygon area is 0: its vertices are collinear, or so close "
                                 "that the area underflows")
        if area < 0:
            raise ParameterError("polygon must be counter-clockwise (signed area > 0)")
        if not _is_simple(edges):
            raise ParameterError("polygon edges may intersect only at shared endpoints")

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
    """Area centroid of the polygon. Its sums of cubes overflow from |v| of
    about 3e102, so they are taken on the vertices scaled by a power of two
    into [0.5, 1): exact, so the bits are those of the unscaled sums."""
    k = int(np.frexp(np.abs(dom.vertices).max())[1])
    v = np.ldexp(dom.vertices, -k)
    w = np.roll(v, -1, axis=0)
    cross = v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]
    area = cross.sum() / 2.0
    cx = ((v[:, 0] + w[:, 0]) * cross).sum() / (6.0 * area)
    cy = ((v[:, 1] + w[:, 1]) * cross).sum() / (6.0 * area)
    return np.ldexp(np.array([cx, cy]), k)


def _orient(a, b, c):
    return (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) - (
        b[..., 1] - a[..., 1]
    ) * (c[..., 0] - a[..., 0])


def index_ranges(starts, counts) -> np.ndarray:
    """The index ranges [starts[k], starts[k] + counts[k]), concatenated."""
    return np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


def _pair_tile() -> int:
    """(query, edge) pairs per call of every per-pair kernel (distances, box
    contact), and points per call of the side rule: its about 7 tile-sized
    temporaries then hold about BLOCK floats. Passes that list pairs
    (``_is_simple``, ``divergence._patch_systems``) keep runs of BLOCK, as
    pair-tile runs slowed ``_is_simple`` on Koch 8 from 0.44 to 0.62 s."""
    return max(1, BLOCK // 8)


def _block_runs(counts, budget):
    """Yield ``(start, stop)`` over consecutive runs of ``counts`` that sum
    to at most ``budget``, unless one entry alone is more."""
    ends = np.cumsum(counts)
    start = 0
    while start < len(ends):
        base = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + budget, side="right")))
        yield start, stop
        start = stop


def _is_simple(edges) -> bool:
    """Whether no two edges meet except adjacent ones at their shared vertex.

    Only edges whose closed bounding boxes overlap can meet; those pairs
    come from one sort-and-sweep over the x extents, listed for runs of
    edges in x order with at most BLOCK pairs each, and the first run
    with a meeting pair decides.
    """
    n = len(edges)
    blo, bhi = edges.min(axis=1), edges.max(axis=1)
    order = np.argsort(blo[:, 0], kind="stable")
    end = np.searchsorted(blo[order, 0], bhi[order, 0], side="right")
    later = end - np.arange(1, n + 1)  # x-overlapping edges after each in x order
    for start, stop in _block_runs(later, BLOCK):
        k, c = np.arange(start, stop), later[start:stop]
        u, v = order[np.repeat(k, c)], order[index_ranges(k + 1, c)]
        if _pairs_meet(edges, blo, bhi, u, v):
            return False
    return True


def _pairs_meet(edges, blo, bhi, u, v) -> bool:
    """Whether some pair (u, v) of distinct edges with overlapping x extents
    meets other than at the shared vertex of adjacent edges.

    A proper crossing, or an endpoint of one edge lying on the other
    (collinear overlap or touching), counts unless the pair is adjacent and
    that endpoint is the shared vertex.
    """
    n = len(edges)
    y_meet = (blo[u, 1] <= bhi[v, 1]) & (blo[v, 1] <= bhi[u, 1])
    i, j = np.minimum(u, v)[y_meet], np.maximum(u, v)[y_meet]
    a, b, c, d = edges[i, 0], edges[i, 1], edges[j, 0], edges[j, 1]
    d1, d2 = _orient(a, b, c), _orient(a, b, d)
    d3, d4 = _orient(c, d, a), _orient(c, d, b)
    if ((d1 * d2 < 0) & (d3 * d4 < 0)).any():
        return True
    on = [
        (d1 == 0) & _on_segment(a, b, c),
        (d2 == 0) & _on_segment(a, b, d),
        (d3 == 0) & _on_segment(c, d, a),
        (d4 == 0) & _on_segment(c, d, b),
    ]
    succ = j == i + 1
    adj = succ | ((i == 0) & (j == n - 1))  # successor, or the wrap-around
    if ((on[0] | on[1] | on[2] | on[3]) & ~adj).any():
        return True
    shared = np.where(succ[:, None], b, a)
    return any((touch & adj & (pt != shared).any(axis=1)).any()
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

def point_segment_dist_sq(px, py, ax, ay, dx, dy, ab2):
    """Squared distance of points to segments a + t d, t in [0, 1], elementwise.

    ``ab2`` is d . d with zero-length segments mapped to 1; see
    ``segment_parts``. Every point-to-edge distance in the package runs
    through this kernel, so the same pair always gives the same float.
    """
    apx, apy = px - ax, py - ay
    # clamped in place, an array even for scalar input: np.clip runs a
    # Python-level wrapper on every call
    t = np.asarray((apx * dx + apy * dy) / ab2)
    np.maximum(t, 0.0, out=t)
    np.minimum(t, 1.0, out=t)
    ex, ey = apx - t * dx, apy - t * dy
    return ex * ex + ey * ey


def segment_parts(a, b):
    """(ax, ay, dx, dy, ab2) of segments [a, b] given as (..., 2) endpoints."""
    ax, ay = a[..., 0], a[..., 1]
    dx, dy = b[..., 0] - ax, b[..., 1] - ay
    ab2 = dx * dx + dy * dy
    return ax, ay, dx, dy, np.where(ab2 == 0, 1.0, ab2)


def _fold_edge_tiles(n_queries, n_edges, tile, fold):
    """Call ``fold(rows, e, vals)`` on every tile of the queries against the
    edges, edge groups in order for each run of queries.

    ``tile(rows, edges)`` takes a slice of queries and a slice of edges and
    returns their (edges, queries) values ``vals``; ``e`` is the first edge
    of the group. A tile spans at most a pair tile (``_pair_tile``): a run
    of queries along the contiguous axis, as long as the tile allows,
    against a group of edges. ``fold`` merges each tile into the caller's
    running result for ``rows``; an exact fold (a minimum, a logical or, the
    first minimum's edge) makes the result independent of the tiling.
    """
    pairs = _pair_tile()
    width = max(1, min(n_queries, pairs))
    group = max(1, pairs // width)
    for i in range(0, n_queries, width):
        rows = slice(i, i + width)
        for e in range(0, n_edges, group):
            # bound to a name, the previous tile is freed only after this
            # one is built, so the allocator keeps its pages instead of
            # faulting in new ones (1.5x faster on 4,736 points of Koch 3)
            vals = tile(rows, slice(e, e + group))
            fold(rows, e, vals)


def _distance_tile(dom: PolygonalDomain, points):
    """The point count and the ``_fold_edge_tiles`` tile of the squared
    distances of an (M, 2) array of points, edges as (G, 1) columns."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    px, py = np.ascontiguousarray(pts[:, 0]), np.ascontiguousarray(pts[:, 1])
    cols = [v[:, None] for v in segment_parts(dom.edges[:, 0], dom.edges[:, 1])]
    return len(pts), lambda rows, edges: point_segment_dist_sq(px[rows], py[rows],
                                                               *(c[edges] for c in cols))


def boundary_distances(dom: PolygonalDomain, points) -> np.ndarray:
    """Distance to the polygon boundary for an (M, 2) array of points.

    A running minimum over the edge groups of ``_fold_edge_tiles``: 2.1 MiB
    traced on 65,536 points, where tiles of BLOCK pairs took 6.0.
    """
    m, tile = _distance_tile(dom, points)
    out = np.full(m, np.inf)

    def fold(rows, e, vals):
        np.minimum(out[rows], vals.min(axis=0), out=out[rows])

    _fold_edge_tiles(m, dom.n_edges, tile, fold)
    return np.sqrt(out, out=out)


def nearest_edges(dom: PolygonalDomain, points) -> tuple[np.ndarray, np.ndarray]:
    """``boundary_distances`` of an (M, 2) array of points, bit for bit, and
    the index of each point's nearest edge, the first one on ties."""
    m, tile = _distance_tile(dom, points)
    dist_sq, edge = np.full(m, np.inf), np.zeros(m, dtype=np.int64)

    def fold(rows, e, vals):
        if len(vals) == 1:  # one edge a group, as for more than 4,096 points
            least, first = vals[0], e
        else:  # the first row at the minimum: argmin along rows is ~20x slower
            least = vals.min(axis=0)
            rank = np.arange(len(vals))[:, None]
            first = np.where(vals == least, rank, len(vals)).min(axis=0) + e
        better = least < dist_sq[rows]  # strictly: an earlier group keeps a tie
        np.minimum(dist_sq[rows], least, out=dist_sq[rows])
        np.copyto(edge[rows], first, where=better)

    _fold_edge_tiles(m, dom.n_edges, tile, fold)
    return np.sqrt(dist_sq, out=dist_sq), edge


def side_of_edges(dom: PolygonalDomain, px, py, edge) -> np.ndarray:
    """Whether each point (px, py) lies on the inner side of the boundary,
    given its nearest edge ``edge`` and a distance above BOUNDARY_EPS.

    Where the foot of the perpendicular from the point lies inside its edge,
    the inner side is the left of the edge. Where it clamps to a vertex, the
    inner side is the vertex's angle: left of both edges at the vertex if it
    is convex, of either if it is reflex or straight.

    Why this is exact: take a nearest boundary point Q of the point P. The
    open segment PQ misses the boundary, so P lies on the side that the
    boundary presents at Q. At distances above 1e-12 on coordinates of
    order one, the orientation signs are far from rounding. A computed
    nearest edge that is not a true one lies within rounding of the
    minimum: on a simple polygon that is another nearest point, which gives
    the same side, or the other edge at the same vertex, which the vertex
    rule covers. Points go a pair tile at a time, since the rule keeps
    about 20 temporaries of their length.
    """
    v, n = dom.vertices, dom.n_edges
    vx, vy = v[:, 0], v[:, 1]
    out = np.empty(len(edge), dtype=bool)
    block = _pair_tile()
    for s in range(0, len(edge), block):
        x, y, e = px[s:s + block], py[s:s + block], edge[s:s + block]
        f = (e + 1) % n
        ax, ay = vx[e], vy[e]
        dx, dy, rx, ry = vx[f] - ax, vy[f] - ay, x - ax, y - ay
        inside = dx * ry - dy * rx > 0.0
        dot = rx * dx + ry * dy
        k = np.flatnonzero((dot <= 0.0) | (dot >= dx * dx + dy * dy))  # feet at a vertex
        # the vertex and its other edge: the start of e and e - 1, or the end
        # of e and e + 1
        start = dot[k] <= 0.0
        w = np.where(start, e[k], f[k])
        o = np.where(start, e[k] - 1, f[k]) % n
        left = _orient(v[o], v[(o + 1) % n], np.stack([x[k], y[k]], axis=-1)) > 0.0
        convex = _orient(v[w - 1], v[w], v[(w + 1) % n]) > 0.0
        inside[k] = np.where(convex, inside[k] & left, inside[k] | left)
        out[s:s + block] = inside
    return out


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


def boxes_inside_domain(dom: PolygonalDomain, los, his, inside) -> np.ndarray:
    """Whether each closed axis-aligned box [los[m], his[m]] of the (M, 2)
    corner arrays lies inside the open domain, given ``inside``: whether a
    point of the box more than BOUNDARY_EPS from the boundary is inside.

    True iff ``inside`` holds and no edge meets the box widened by
    BOUNDARY_EPS on every side. An edge-free box lies wholly on one side of
    the boundary, so any of its points decides; boxes touching the boundary
    are excluded. Only boxes with ``inside`` are tested against every edge,
    tiled by ``_fold_edge_tiles`` with the edges as (G, 1, 2) columns and a
    logical or over the edge groups.
    """
    los = np.asarray(los, dtype=float)
    his = np.asarray(his, dtype=float)
    out = np.array(inside, dtype=bool)
    idx = np.flatnonzero(out)
    lo, hi = los[idx] - BOUNDARY_EPS, his[idx] + BOUNDARY_EPS
    p, q = dom.edges[:, None, 0], dom.edges[:, None, 1]
    meets = np.zeros(len(idx), dtype=bool)

    def tile(rows, edges):
        return segments_meet_boxes(p[edges], q[edges], lo[rows], hi[rows])

    def fold(rows, e, vals):
        np.logical_or(meets[rows], vals.any(axis=0), out=meets[rows])

    _fold_edge_tiles(len(idx), dom.n_edges, tile, fold)
    out[idx] = ~meets
    return out


def segments_meet_boxes(p, q, lo, hi) -> np.ndarray:
    """Whether segments [p, q] meet closed boxes [lo, hi], by Liang-Barsky
    clipping; the (..., 2) arguments broadcast against each other. Where
    d = 0 the parameters are NaN, which ``fmax`` and ``fmin`` skip."""
    d = q - p
    t0, t1, alive = 0.0, 1.0, True
    for axis in range(2):
        p0, dd, a, b = p[..., axis], d[..., axis], lo[..., axis], hi[..., axis]
        par = dd == 0.0
        alive = alive & (~par | ((a <= p0) & (p0 <= b)))
        den = np.where(par, np.nan, dd)
        ta, tb = (a - p0) / den, (b - p0) / den
        neg = den < 0.0
        t0 = np.fmax(t0, np.where(neg, tb, ta))
        t1 = np.fmin(t1, np.where(neg, ta, tb))
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
