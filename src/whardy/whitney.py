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
from .geometry import PolygonalDomain, point_segment_dist_sq, segment_parts

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
    finest_level: int = field(init=False)  # the deepest cube level, 0 without cubes

    def __post_init__(self):
        # Cube ids follow the lexicographic (level, i, j) order: adjacency,
        # locate and the tree's parent choice rely on it.
        lev = np.asarray(self.levels, dtype=np.int64)
        idx = np.asarray(self.indices, dtype=np.int64).reshape(len(lev), 2)
        self.finest_level = int(lev.max()) if len(lev) else 0
        if self.finest_level > KEY_LEVEL_LIMIT:
            raise StructureError(
                f"cube level {self.finest_level} exceeds {KEY_LEVEL_LIMIT}: (level, i, j) keys "
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

    def truncate(self, level: int) -> WhitneyDecomposition:
        """The decomposition ``whitney_decompose`` builds at ``max_level =
        level``: its cubes are those at levels <= ``level``, a prefix of
        the ids, since a cube's acceptance depends only on its ancestors.
        Raises what that build would for ``level`` below 2 or without cubes,
        and ParameterError above ``max_level``. At ``max_level`` it is the
        decomposition itself, adjacency included."""
        if level < 2:
            raise ParameterError("max_level must be >= 2")
        if level > self.max_level:
            raise ParameterError(f"level {level} exceeds the decomposition's max_level "
                                 f"{self.max_level}")
        n = int(np.searchsorted(self.levels, level, side="right"))
        if n == 0:
            raise EmptyDecompositionError(
                f"no Whitney cube fits inside {self.domain.name} at max_level={level}")
        if level == self.max_level:
            return self
        return WhitneyDecomposition(self.domain, self.frame, level, self.levels[:n],
                                    self.indices[:n], self.dist[:n], self.dist_sq[:n])

    @property
    def collar_width(self) -> float:
        """8 sqrt(2) times the side at ``max_level``: points farther than this
        from the boundary lie in some cube."""
        return 8.0 * math.sqrt(2) * self.frame.size * 2.0 ** (-self.max_level)

    @property
    def sides(self) -> np.ndarray:
        return self.frame.size * np.exp2(-self.levels.astype(float))

    def spans(self, at_level: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Integer cube extents [lo, hi] per axis in units of 2^-at_level (default: finest)."""
        L = self.finest_level if at_level is None else at_level
        shift = (L - self.levels).astype(np.int64)
        lo = self.indices.astype(np.int64) << shift[:, None]
        hi = (self.indices.astype(np.int64) + 1) << shift[:, None]
        return lo, hi

    def _key(self, level, i, j):
        # level << 2b | i << b | j with b the deepest level: 2b + bit_length(b) bits
        b = self.finest_level
        return (level << (2 * b)) | (i << b) | j

    def find(self, level, i, j):
        """Ids of the cubes (level, i, j), -1 where there is none; the cell
        indices may fall outside the level's lattice."""
        level, i, j = np.broadcast_arrays(*(np.asarray(v, dtype=np.int64) for v in (level, i, j)))
        ok = (level >= 0) & (level <= self.finest_level)
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
            shift = self.finest_level - lev  # the cell's ancestor at level lev
            t = self.find(lev, i.flat[todo] >> shift, j.flat[todo] >> shift)
            hit = t >= 0
            out.flat[todo[hit]] = t[hit]
            todo = todo[~hit]
        return out

    def locate(self, point) -> int | None:
        """Id of the cube whose half-open box contains the point, or None."""
        s = self.frame.cube_side(self.finest_level)
        t = int(self.owner(math.floor((point[0] - self.frame.origin[0]) / s),
                           math.floor((point[1] - self.frame.origin[1]) / s)))
        return t if t >= 0 else None


# ---------------------------------------------------------------------------
# construction

# Deepest level whose (level, i, j) keys fit a nonnegative int64:
# 2 * 29 + bit_length(29) = 63 bits.
KEY_LEVEL_LIMIT = 29
# Slack of the centre bound in ``boxes_boundary_dist_sq``, as a fraction of
# the box's half-diagonal r: the bound says a pair is farther than c - r - s
# with s = r * CENTRE_SLACK, so the rounding of c, r, the exact kernel and
# the contact test, each a few ulps of the frame size, can only make it prune
# less. ``whitney_decompose`` widens the children's candidate lists by the
# same s, so that rounding can only make a list longer.
CENTRE_SLACK = 1e-4
# Deepest level at which that slack still covers the rounding: s of a finest
# cube, sqrt(2) / 2 * 2^-level * CENTRE_SLACK of the frame size, must exceed
# 64 ulps of the frame size (593 ulps at level 29).
SLACK_LEVEL_LIMIT = int(math.log2(math.sqrt(0.5) * CENTRE_SLACK / (64 * 2.0**-52)))
MAX_LEVEL = min(KEY_LEVEL_LIMIT, SLACK_LEVEL_LIMIT)


def _box_segment_gap_sq(a, b, lo, hi):
    """Squared distance from segments [a, b] to solid boxes [lo, hi] that
    they do not meet.

    The (..., 2) arguments broadcast against each other. A segment that
    misses the box is nearest to it at a box corner or a segment endpoint,
    so checking those features is exact; the exact distance of a segment
    that meets the box is zero (``geometry.segments_meet_boxes``).
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
    return d2


def boxes_boundary_dist_sq(dom: PolygonalDomain, lo, hi, ptr, cand):
    """Squared distance of solid boxes to the polygon boundary.

    Box m is measured against the edges ``cand[ptr[m]:ptr[m + 1]]``; every
    list must be non-empty.
    Returns the exact per-box minimum; per pair in candidate order, a
    value no larger than the pair's exact distance: zero where the edge
    meets the box, else ``_box_segment_gap_sq``; and per box the candidate
    edge nearest its centre, the first in the list on ties.

    Bounds prune the exact kernels. Every point of a box lies within r of
    its centre (r: its distance to the farthest corner), so an edge at
    centre distance c has d(Q, e) >= c - r, and d(Q) <= min c. With
    s = r * CENTRE_SLACK, only pairs with c - r - s <= 0 get the contact
    test, and on boxes that meet no edge only pairs with c - r - s <=
    min c + s get the exact gap. The others return max(c - r - s, 0)^2:
    below their exact value, and on a box without contact above its
    minimum. So the minimum is the exact one bit for bit, and a caller
    that keeps the pairs below a bound keeps a superset of the exact
    pairs.
    """
    edges = dom.edges
    owner = np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))
    block = geometry._pair_tile()

    def fill(out, idx, kernel):
        # kernel(a, b, lo, hi) on the pairs idx, one block at a time
        for s in range(0, len(idx), block):
            k = idx[s : s + block]
            o, e = owner[k], cand[k]
            out[k] = kernel(edges[e, 0], edges[e, 1], lo[o], hi[o])
        return out

    mid = (lo + hi) / 2.0
    r = np.hypot(np.maximum(mid[:, 0] - lo[:, 0], hi[:, 0] - mid[:, 0]),
                 np.maximum(mid[:, 1] - lo[:, 1], hi[:, 1] - mid[:, 1]))
    slack = r * CENTRE_SLACK
    # every pair runs this pass, so it gathers precomputed segment parts
    # (through ``fill`` Koch 6 at level 12 built 1.5x slower)
    seg = segment_parts(edges[:, 0], edges[:, 1])
    c = np.empty(len(cand))
    for s in range(0, len(cand), block):
        o, e = owner[s : s + block], cand[s : s + block]
        c[s : s + block] = point_segment_dist_sq(mid[o, 0], mid[o, 1], *(v[e] for v in seg))
    least = np.minimum.reduceat(c, ptr[:-1])
    first = np.flatnonzero(c == least[owner])
    near = cand[first[np.searchsorted(owner[first], np.arange(len(r)))]]
    np.sqrt(c, out=c)
    lower = c - (r + slack)[owner]  # d(Q, e) >= lower
    meets = fill(np.zeros(len(cand), dtype=bool), np.flatnonzero(lower <= 0.0),
                 geometry.segments_meet_boxes)
    touched = np.zeros(len(r), dtype=bool)
    touched[owner[meets]] = True
    upper = np.sqrt(least) + slack  # d(Q) <= upper; sqrt is monotone, so exact
    exact = np.flatnonzero(~touched[owner] & (lower <= upper[owner]))
    pair = np.maximum(lower, 0.0, out=c)
    pair *= pair
    pair[meets] = 0.0
    fill(pair, exact, _box_segment_gap_sq)
    return np.minimum.reduceat(pair, ptr[:-1]), pair, near


def whitney_decompose(dom: PolygonalDomain, max_level: int) -> WhitneyDecomposition:
    """Maximal dyadic cubes with diam(Q) <= d(Q, boundary), truncated at max_level.

    A cube is accepted when its center lies in the open domain, the Whitney
    predicate holds, and its parent was not acceptable. Cubes meeting the
    boundary are subdivided; cubes fully outside are pruned.

    Each active cube carries a CSR list of candidate edges, all edges for
    the frame. A child keeps the edges e of its parent P with d(P, e) <=
    d(P) + diam(P) + s, s = diam(P) / 2 * CENTRE_SLACK: every ancestor A of
    a cube C passes C's nearest edge e*, since d(A, e*) <= d(C) <= d(A) +
    diam(A). The per-pair values of ``boxes_boundary_dist_sq`` are lower
    bounds up to rounding, which s covers through ``SLACK_LEVEL_LIMIT``, so
    a list may only hold more edges than the exact rule, and the minimum
    runs over the same per-pair floats as a test against every edge.

    A cube that meets the boundary is split whatever its centre says. One
    that misses it lies on one side, with its centre more than side / 2 >
    BOUNDARY_EPS from the boundary, so the side of the centre's nearest
    edge decides (``geometry.side_of_edges``). That edge e_c is always a
    candidate, since d(A, e_c) <= d(c) <= d(A) + diam(A) for every ancestor
    A. A parent that misses the boundary and is split lies inside, so its
    children skip that test.
    """
    if max_level < 2:
        raise ParameterError("max_level must be >= 2")
    if max_level > MAX_LEVEL:
        raise ParameterError(
            f"max_level must be <= {MAX_LEVEL}: cube keys overflow int64 beyond level "
            f"{KEY_LEVEL_LIMIT}, and the centre-bound slack no longer covers float rounding "
            f"beyond level {SLACK_LEVEL_LIMIT}"
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
        d2, pair_d2, near = boxes_boundary_dist_sq(dom, lo, hi, ptr, cand)
        inside = np.ones(len(active), dtype=bool)
        test = np.flatnonzero(parent_meets & (d2 > 0.0))
        inside[test] = geometry.side_of_edges(dom, centers[test, 0], centers[test, 1], near[test])
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
        # d(P) + diam(P) + s, with s = diam(P) / 2 * CENTRE_SLACK
        reach = np.sqrt(d2) + side * math.sqrt(2.0) * (1.0 + CENTRE_SLACK / 2.0)
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


def _csr_rows(csr):
    """The JSON text of each row of a CSR pair (ptr, idx), one string a row."""
    ptr, idx = csr
    for a, b in itertools.pairwise(ptr.tolist()):
        yield str(idx[a:b].tolist())


def decomposition_to_json(dec: WhitneyDecomposition) -> str:
    """The decomposition as the text ``json.dumps`` writes with sorted keys:
    collar width, frame and max level, the cubes as id, level, index and
    dist, and both neighbor lists. Each cube's record and each row is built
    as one string, so no dict or list is held per cube; ``json`` writes a
    finite float with ``float.__repr__``, so ``{d!r}`` keeps every byte.
    The header values go through ``json.dumps``."""
    if not np.isfinite(dec.dist).all():
        raise ParameterError("cube distances must be finite to be written as JSON")
    rows = zip(dec.levels.tolist(), dec.indices[:, 0].tolist(), dec.indices[:, 1].tolist(),
               dec.dist.tolist())
    cubes = ", ".join(f'{{"dist": {d!r}, "id": {t}, "index": [{i}, {j}], "level": {lev}}}'
                      for t, (lev, i, j, d) in enumerate(rows))
    face = ", ".join(_csr_rows(dec.face_neighbors))
    nb = ", ".join(_csr_rows(dec.neighbors))
    frame = json.dumps({"origin": list(dec.frame.origin), "size": dec.frame.size},
                       sort_keys=True)
    return (f'{{"collar_width": {json.dumps(dec.collar_width)}, "cubes": [{cubes}], '
            f'"face_neighbors": [{face}], "frame": {frame}, '
            f'"max_level": {json.dumps(dec.max_level)}, "neighbors": [{nb}]}}')


def decomposition_from_json(text: str, dom: PolygonalDomain) -> WhitneyDecomposition:
    """``decomposition_to_json``'s text read back on ``dom``, bit for bit but
    ``dist_sq``: it is ``dist * dist``, which differs from the construction's
    square in the last bit on 46 of 374 slit-square cubes at level 6 and on
    602 of 1,912 Koch 2 cubes at level 8."""
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
