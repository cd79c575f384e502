"""Truncated Whitney decomposition of a polygonal domain into dyadic squares.

Cubes live on the dyadic lattice of a frame box with power-of-two side, so
every cube is identified by integer data (level, index) and neighbor tests
are integer arithmetic with no tolerances. Distances from cubes to the
polygon boundary are exact segment geometry; the Whitney predicate
d(Q) >= diam(Q) is evaluated on squared quantities to avoid square-root
rounding.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import EmptyDecompositionError, ParameterError, StructureError
from .geometry import PAIR_CHUNK, PolygonalDomain, point_segment_dist_sq, segment_parts

EXPANSION = 17.0 / 16.0


@dataclass(frozen=True)
class Frame:
    """Reference box: all cubes are dyadic subdivisions of this square."""

    origin: tuple[float, float]
    size: float  # power of two

    def cube_side(self, level: int) -> float:
        return self.size * 2.0 ** (-level)


def frame_for_domain(dom: PolygonalDomain) -> Frame:
    """Bounding box inflated by 10% and snapped to a power-of-two side."""
    lo, hi = dom.bounding_box()
    extent = float(max(hi - lo)) * 1.1
    size = 2.0 ** math.ceil(math.log2(extent))
    center = (lo + hi) / 2.0
    origin = (center[0] - size / 2.0, center[1] - size / 2.0)
    return Frame(origin, size)


@dataclass
class WhitneyDecomposition:
    domain: PolygonalDomain
    frame: Frame
    max_level: int
    levels: np.ndarray  # (N,) int
    indices: np.ndarray  # (N, 2) int
    dist: np.ndarray  # (N,) exact d(Q_t, boundary)
    dist_sq: np.ndarray  # (N,) same, squared (no sqrt rounding)
    # CSR pairs (ptr, idx): the touching cubes of t, ascending, are
    # idx[ptr[t]:ptr[t + 1]]; face_neighbors keeps the face contacts only
    neighbors: tuple = field(init=False)
    face_neighbors: tuple = field(init=False)
    keys: np.ndarray = field(init=False, repr=False)  # (N,) sorted (level, i, j) keys

    def __post_init__(self):
        # Cube ids follow the lexicographic (level, i, j) order: adjacency,
        # locate and the tree's parent choice rely on it.
        lev = np.asarray(self.levels, dtype=np.int64)
        idx = np.asarray(self.indices, dtype=np.int64).reshape(len(lev), 2)
        self._bits = int(lev.max()) if len(lev) else 0
        if self._bits > KEY_LEVEL_LIMIT:
            raise StructureError(
                f"cube level {self._bits} exceeds {KEY_LEVEL_LIMIT}: (level, i, j) keys "
                "would overflow int64"
            )
        if (lev < 0).any() or (idx >> lev[:, None]).any():
            raise StructureError("cube index outside its level's lattice")
        self.keys = self._key(lev, idx[:, 0], idx[:, 1])
        if (self.keys[1:] <= self.keys[:-1]).any():
            raise StructureError("cubes must be distinct and sorted by (level, i, j)")
        self.neighbors, self.face_neighbors = _adjacency(self)

    def __len__(self):
        return len(self.levels)

    @property
    def collar_width(self) -> float:
        """8 sqrt(2) times the side at ``max_level``: points farther than this
        from the boundary lie in some cube."""
        return 8.0 * math.sqrt(2) * self.frame.size * 2.0 ** (-self.max_level)

    @property
    def sides(self) -> np.ndarray:
        return self.frame.size * np.exp2(-self.levels.astype(float))

    def spans(self, at_level: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Integer cube extents [lo, hi] per axis in units of 2^-at_level."""
        L = int(self.levels.max()) if at_level is None else at_level
        shift = (L - self.levels).astype(np.int64)
        lo = self.indices.astype(np.int64) << shift[:, None]
        hi = (self.indices.astype(np.int64) + 1) << shift[:, None]
        return lo, hi

    def _key(self, level, i, j):
        # level << 2b | i << b | j with b the deepest level: 2b + bit_length(b) bits
        b = self._bits
        return (level << (2 * b)) | (i << b) | j

    def find(self, level, i, j):
        """Ids of the cubes (level, i, j), -1 where there is none; the cell
        indices may fall outside the level's lattice."""
        level, i, j = np.broadcast_arrays(*(np.asarray(v, dtype=np.int64) for v in (level, i, j)))
        ok = (level >= 0) & (level <= self._bits)
        ok &= ((i | j) >> np.where(ok, level, 0)) == 0
        key = self._key(np.where(ok, level, 0), np.where(ok, i, 0), np.where(ok, j, 0))
        pos = np.minimum(np.searchsorted(self.keys, key), len(self.keys) - 1)
        return np.where(ok & (self.keys[pos] == key), pos, -1)

    def owner(self, i, j) -> np.ndarray:
        """Ids of the cubes that hold the cells (i, j) of the lattice at the
        deepest cube level, -1 where none does."""
        i, j = np.broadcast_arrays(np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64))
        out = np.full(i.shape, -1, dtype=np.int64)
        todo = np.arange(i.size)  # cells not yet owned
        for lev in np.unique(self.levels):
            if not todo.size:
                break
            shift = self._bits - lev  # the cell's ancestor at level lev
            t = self.find(lev, i.flat[todo] >> shift, j.flat[todo] >> shift)
            hit = t >= 0
            out.flat[todo[hit]] = t[hit]
            todo = todo[~hit]
        return out

    def locate(self, point) -> int | None:
        """Id of the cube whose half-open box contains the point, or None."""
        s = self.frame.cube_side(self._bits)
        t = int(self.owner(math.floor((point[0] - self.frame.origin[0]) / s),
                           math.floor((point[1] - self.frame.origin[1]) / s)))
        return t if t >= 0 else None


# ---------------------------------------------------------------------------
# construction

# Children keep the parent's candidate edges within (d(P) + diam(P)) times
# this factor. The exact rule needs factor 1; the widening absorbs float
# rounding in the per-pair distances, so a list can only grow.
CANDIDATE_WIDENING = 1.0 + 1e-6

# Deepest level whose (level, i, j) keys fit a nonnegative int64:
# 2 * 29 + bit_length(29) = 63 bits.
KEY_LEVEL_LIMIT = 29
# Deepest level at which the widening still covers the rounding: the slack
# of a finest cube, sqrt(2) * 2^-level * (CANDIDATE_WIDENING - 1) of the
# frame size, must exceed 8 ulps of the frame size (12 ulps at level 29,
# 6 at level 30).
WIDENING_LEVEL_LIMIT = int(math.log2(math.sqrt(2.0) * (CANDIDATE_WIDENING - 1.0) / (8 * 2.0**-52)))
MAX_LEVEL = min(KEY_LEVEL_LIMIT, WIDENING_LEVEL_LIMIT)


def _box_segment_dist_sq(lo, hi, a, b):
    """Exact squared distance from solid boxes [lo, hi] to segments [a, b].

    The (..., 2) arguments broadcast against each other. Zero when the
    segment meets the closed box; otherwise the minimum is attained at a box
    corner or a segment endpoint, so checking those features is exact.
    """
    seg = segment_parts(a, b)
    lx, ly, hx, hy = lo[..., 0], lo[..., 1], hi[..., 0], hi[..., 1]
    d2 = point_segment_dist_sq(lx, ly, *seg)
    for cx, cy in ((hx, ly), (hx, hy), (lx, hy)):
        d2 = np.minimum(d2, point_segment_dist_sq(cx, cy, *seg))
    for p in (a, b):
        ex = np.maximum(np.maximum(lx - p[..., 0], 0.0), p[..., 0] - hx)
        ey = np.maximum(np.maximum(ly - p[..., 1], 0.0), p[..., 1] - hy)
        d2 = np.minimum(d2, ex * ex + ey * ey)
    return np.where(geometry.segments_meet_boxes(a, b, lo, hi), 0.0, d2)


def boxes_boundary_dist_sq(dom: PolygonalDomain, lo, hi, ptr, cand):
    """Squared distance of solid boxes to the polygon boundary.

    Box m is measured against the edges ``cand[ptr[m]:ptr[m + 1]]``, in
    chunks of pairs; every list must be non-empty. Returns the per-box
    minimum and the per-pair distances in candidate order.
    """
    edges = dom.edges
    owner = np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))
    pair = np.empty(len(cand))
    for s in range(0, len(cand), PAIR_CHUNK):
        o, e = owner[s : s + PAIR_CHUNK], cand[s : s + PAIR_CHUNK]
        pair[s : s + PAIR_CHUNK] = _box_segment_dist_sq(lo[o], hi[o], edges[e, 0], edges[e, 1])
    return np.minimum.reduceat(pair, ptr[:-1]), pair


def whitney_decompose(dom: PolygonalDomain, max_level: int) -> WhitneyDecomposition:
    """Maximal dyadic cubes with diam(Q) <= d(Q, boundary), truncated at max_level.

    A cube is accepted when its center lies in the open domain, the Whitney
    predicate holds, and its parent was not acceptable. Cubes meeting the
    boundary are subdivided; cubes fully outside are pruned.

    Each active cube carries a CSR list of candidate edges, all edges for
    the frame. A child keeps the edges e of its parent P with d(P, e) <=
    d(P) + diam(P): every ancestor A of a cube C passes C's nearest edge
    e*, since d(A, e*) <= d(C) <= d(A) + diam(A). So the minimum runs
    over the same per-pair floats as a test against every edge.

    A cube that meets the boundary is split whatever its centre says. One
    that misses it lies on one side, with its centre more than side / 2 >
    BOUNDARY_EPS from the boundary, so the centre's ray parity decides; a
    parent that misses the boundary and is split lies inside, so its
    children skip that test.
    """
    if max_level < 2:
        raise ParameterError("max_level must be >= 2")
    if max_level > MAX_LEVEL:
        raise ParameterError(
            f"max_level must be <= {MAX_LEVEL}: cube keys overflow int64 beyond level "
            f"{KEY_LEVEL_LIMIT}, and the candidate-edge widening no longer covers float "
            f"rounding beyond level {WIDENING_LEVEL_LIMIT}"
        )
    frame = frame_for_domain(dom)
    if frame.cube_side(max_level) / 2.0 <= geometry.BOUNDARY_EPS:
        raise ParameterError(
            f"max_level {max_level} gives cubes of side {frame.cube_side(max_level):.3g}: "
            f"half a side must exceed the boundary tolerance {geometry.BOUNDARY_EPS:g}"
        )
    origin = np.asarray(frame.origin)

    acc_levels, acc_indices, acc_d2 = [], [], []
    active = np.zeros((1, 2), dtype=np.int64)  # the frame itself, level 0
    ptr, cand = np.array([0, dom.n_edges]), np.arange(dom.n_edges)
    parent_meets = np.ones(1, dtype=bool)
    offs = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.int64)
    for level in range(0, max_level + 1):
        if len(active) == 0:
            break
        side = frame.cube_side(level)
        lo = origin + active * side
        hi = lo + side
        centers = lo + side / 2.0
        d2, pair_d2 = boxes_boundary_dist_sq(dom, lo, hi, ptr, cand)
        inside = np.ones(len(active), dtype=bool)
        ray = np.flatnonzero(parent_meets & (d2 > 0.0))
        inside[ray] = geometry._ray_parity(dom, centers[ray, 0], centers[ray, 1])
        accept = inside & (d2 >= 2.0 * side * side)
        if accept.any():
            acc_levels.append(np.full(accept.sum(), level))
            acc_indices.append(active[accept])
            acc_d2.append(d2[accept])
        if level == max_level:
            break
        # Subdivide undecided cubes; prune those fully outside the domain.
        outside = (~inside) & (d2 > 0.0)
        split = ~accept & ~outside
        reach = (np.sqrt(d2) + side * math.sqrt(2.0)) * CANDIDATE_WIDENING
        owner = np.repeat(np.arange(len(active)), np.diff(ptr))
        keep = split[owner] & (pair_d2 <= (reach * reach)[owner])
        counts = np.bincount(owner[keep], minlength=len(active))[split]
        # each child of the q-th split parent copies that parent's kept edges
        starts, child_counts = np.repeat(np.cumsum(counts) - counts, 4), np.repeat(counts, 4)
        cand = cand[keep][geometry.index_ranges(starts, child_counts)]
        ptr = np.concatenate([[0], np.cumsum(child_counts)])
        parent_meets = np.repeat(d2[split] == 0.0, 4)
        active = (active[split][:, None, :] * 2 + offs[None, :, :]).reshape(-1, 2)

    if not acc_levels:
        raise EmptyDecompositionError(
            f"no Whitney cube fits inside {dom.name} at max_level={max_level}"
        )
    levels = np.concatenate(acc_levels).astype(np.int64)
    indices = np.concatenate(acc_indices)
    dist_sq = np.concatenate(acc_d2)
    order = np.lexsort((indices[:, 1], indices[:, 0], levels))
    levels, indices, dist_sq = levels[order], indices[order], dist_sq[order]
    return WhitneyDecomposition(
        domain=dom,
        frame=frame,
        max_level=max_level,
        levels=levels,
        indices=indices,
        dist=np.sqrt(dist_sq),
        dist_sq=dist_sq,
    )


# ---------------------------------------------------------------------------
# adjacency


def _adjacency(dec: WhitneyDecomposition):
    """Neighbor and face-neighbor CSR pairs from the sorted lattice keys.

    Touching Whitney cubes differ by at most two levels (the sandwich forces
    a size ratio <= 4). A cube finds each touching cube of its own size or
    larger as a lattice cell in the 3 x 3 block around its ancestor cell
    zero, one or two levels up; pairs found one or two levels up are
    mirrored to give the smaller neighbors. The touch test is integer
    arithmetic on the finest-level spans.
    """
    n = len(dec)
    lev = dec.levels.astype(np.int64)
    idx = dec.indices.astype(np.int64)
    found = []
    for up in (0, 1, 2):
        l2, base = lev - up, idx >> up
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if up == 0 and di == dj == 0:
                    continue
                s = dec.find(l2, base[:, 0] + di, base[:, 1] + dj)
                t = np.flatnonzero(s >= 0)
                found += [(t, s[t]), (s[t], t)] if up else [(t, s[t])]
    t = np.concatenate([f[0] for f in found])
    s = np.concatenate([f[1] for f in found])
    lo, hi = dec.spans()
    alo, ahi = np.maximum(lo[t], lo[s]), np.minimum(hi[t], hi[s])
    deg = alo == ahi
    meet = (alo <= ahi).all(axis=1)
    kinds = (meet & deg.any(axis=1), meet & (deg[:, 0] != deg[:, 1]))
    out = []
    for touch in kinds:  # corner or face contact; face contact only
        tt, ss = t[touch], s[touch]
        ptr = np.concatenate([[0], np.cumsum(np.bincount(tt, minlength=n))])
        out.append((ptr, ss[np.lexsort((ss, tt))]))
    return out[0], out[1]


# ---------------------------------------------------------------------------
# serialization


def _csr_lists(csr) -> list:
    """Row lists of a CSR pair (ptr, idx)."""
    ptr, idx = csr
    flat = idx.tolist()
    return [flat[a:b] for a, b in itertools.pairwise(ptr.tolist())]


def decomposition_to_json(dec: WhitneyDecomposition) -> str:
    obj = {
        "frame": {"origin": list(dec.frame.origin), "size": dec.frame.size},
        "max_level": dec.max_level,
        "collar_width": dec.collar_width,
        "cubes": [
            {"id": t, "level": lev, "index": ij, "dist": d}
            for t, (lev, ij, d) in enumerate(
                zip(dec.levels.tolist(), dec.indices.tolist(), dec.dist.tolist())
            )
        ],
        "neighbors": _csr_lists(dec.neighbors),
        "face_neighbors": _csr_lists(dec.face_neighbors),
    }
    return json.dumps(obj, sort_keys=True)


def decomposition_from_json(text: str, dom: PolygonalDomain) -> WhitneyDecomposition:
    obj = json.loads(text)
    frame = Frame(tuple(obj["frame"]["origin"]), obj["frame"]["size"])
    cubes = obj["cubes"]
    levels = np.array([c["level"] for c in cubes], dtype=np.int64)
    indices = np.array([c["index"] for c in cubes], dtype=np.int64)
    dist = np.array([c["dist"] for c in cubes])
    return WhitneyDecomposition(
        domain=dom,
        frame=frame,
        max_level=obj["max_level"],
        levels=levels,
        indices=indices,
        dist=dist,
        dist_sq=dist * dist,
    )
