"""Truncated Whitney decomposition of a polygonal domain into dyadic squares.

Cubes live on the dyadic lattice of a frame box with power-of-two side, so
every cube is identified by integer data (level, index) and neighbor tests
are integer arithmetic with no tolerances. Distances from cubes to the
polygon boundary are exact segment geometry; the Whitney predicate
d(Q) >= diam(Q) is evaluated on squared quantities to avoid square-root
rounding.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import EmptyDecompositionError, ParameterError
from .geometry import PolygonalDomain

EXPANSION = 17.0 / 16.0


@dataclass(frozen=True)
class Frame:
    """Reference box: all cubes are dyadic subdivisions of this square."""

    origin: tuple[float, float]
    size: float  # power of two

    def cube_side(self, level: int) -> float:
        return self.size * 2.0 ** (-level)


@dataclass(frozen=True)
class Box:
    lo: tuple[float, float]
    hi: tuple[float, float]

    @property
    def center(self):
        return tuple((l + h) / 2.0 for l, h in zip(self.lo, self.hi))

    @property
    def half_widths(self):
        return tuple((h - l) / 2.0 for l, h in zip(self.lo, self.hi))

    def area(self) -> float:
        return (self.hi[0] - self.lo[0]) * (self.hi[1] - self.lo[1])


@dataclass(frozen=True)
class DyadicCube:
    level: int
    index: tuple[int, int]
    frame: Frame

    @property
    def side(self) -> float:
        return self.frame.cube_side(self.level)

    @property
    def lo(self):
        s = self.side
        return (
            self.frame.origin[0] + self.index[0] * s,
            self.frame.origin[1] + self.index[1] * s,
        )

    @property
    def hi(self):
        lo = self.lo
        s = self.side
        return (lo[0] + s, lo[1] + s)

    @property
    def center(self):
        lo = self.lo
        s = self.side
        return (lo[0] + s / 2.0, lo[1] + s / 2.0)

    @property
    def diam(self) -> float:
        return self.side * math.sqrt(2.0)

    def box(self) -> Box:
        return Box(self.lo, self.hi)


def expanded_cube(c: DyadicCube, factor: float = EXPANSION) -> Box:
    """Concentric box with side factor * side(c)."""
    if not 1.0 < factor < 1.25:
        raise ParameterError("expansion factor must lie in (1, 5/4)")
    cx, cy = c.center
    half = factor * c.side / 2.0
    return Box((cx - half, cy - half), (cx + half, cy + half))


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
    neighbors: list = field(default=None)
    face_neighbors: list = field(default=None)
    collar_width: float = 0.0

    def __post_init__(self):
        if self.neighbors is None:
            self.neighbors, self.face_neighbors = _adjacency(self)
        if not self.collar_width:
            n = 2
            self.collar_width = (
                8.0 * math.sqrt(n) * self.frame.size * 2.0 ** (-self.max_level)
            )

    def __len__(self):
        return len(self.levels)

    @property
    def sides(self) -> np.ndarray:
        return self.frame.size * np.exp2(-self.levels.astype(float))

    def cube(self, t: int) -> DyadicCube:
        if not 0 <= t < len(self):
            raise IndexError(f"cube id {t} out of range")
        return DyadicCube(int(self.levels[t]), tuple(int(v) for v in self.indices[t]), self.frame)

    def cube_los(self) -> np.ndarray:
        s = self.sides
        return np.asarray(self.frame.origin) + self.indices * s[:, None]

    def spans(self, at_level: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Integer cube extents [lo, hi] per axis in units of 2^-at_level."""
        L = int(self.levels.max()) if at_level is None else at_level
        shift = (L - self.levels).astype(np.int64)
        lo = self.indices.astype(np.int64) << shift[:, None]
        hi = (self.indices.astype(np.int64) + 1) << shift[:, None]
        return lo, hi

    def locate(self, point) -> int | None:
        """Id of the cube whose half-open box contains the point, or None."""
        px = point[0] - self.frame.origin[0]
        py = point[1] - self.frame.origin[1]
        lookup = _cube_lookup(self)
        for lev in sorted(set(int(l) for l in self.levels)):
            s = self.frame.cube_side(lev)
            key = (lev, int(math.floor(px / s)), int(math.floor(py / s)))
            if key in lookup:
                return lookup[key]
        return None


def _cube_lookup(dec: WhitneyDecomposition) -> dict:
    cache = getattr(dec, "_lookup", None)
    if cache is None:
        cache = {
            (int(l), int(i), int(j)): t
            for t, (l, (i, j)) in enumerate(zip(dec.levels, dec.indices))
        }
        dec._lookup = cache
    return cache


# ---------------------------------------------------------------------------
# construction


def _box_segment_dist_sq(lo, hi, edges):
    """Exact squared distance from solid boxes to segments, shape (M, E).

    Zero when the segment meets the closed box; otherwise the minimum is
    attained at a box corner or a segment endpoint, so checking those
    features is exact.
    """
    a, b = edges[:, 0], edges[:, 1]
    d = b - a
    M, E = len(lo), len(edges)

    # Closed-box clipping: does the segment meet the box?
    alive, t0, t1 = geometry.clip_segments(edges, lo, hi)
    meets = alive & (t0 <= t1)

    # Corner-to-segment distances.
    corners = np.stack(
        [
            np.stack([lo[:, 0], lo[:, 1]], axis=1),
            np.stack([hi[:, 0], lo[:, 1]], axis=1),
            np.stack([hi[:, 0], hi[:, 1]], axis=1),
            np.stack([lo[:, 0], hi[:, 1]], axis=1),
        ],
        axis=1,
    )  # (M, 4, 2)
    ab2 = (d * d).sum(axis=1)
    ab2 = np.where(ab2 == 0, 1.0, ab2)
    ap = corners[:, :, None, :] - a[None, None, :, :]  # (M, 4, E, 2)
    t = np.clip((ap * d[None, None, :, :]).sum(axis=3) / ab2, 0.0, 1.0)
    diff = ap - t[..., None] * d[None, None, :, :]
    corner_d2 = (diff * diff).sum(axis=3).min(axis=1)  # (M, E)

    # Segment-endpoint-to-box distances.
    end_d2 = np.zeros((M, E))
    for pt in (a, b):
        dx = np.maximum(
            np.maximum(lo[:, None, 0] - pt[None, :, 0], 0.0),
            pt[None, :, 0] - hi[:, None, 0],
        )
        dy = np.maximum(
            np.maximum(lo[:, None, 1] - pt[None, :, 1], 0.0),
            pt[None, :, 1] - hi[:, None, 1],
        )
        e2 = dx * dx + dy * dy
        end_d2 = e2 if pt is a else np.minimum(end_d2, e2)

    d2 = np.minimum(corner_d2, end_d2)
    return np.where(meets, 0.0, d2)


def boxes_boundary_dist_sq(dom: PolygonalDomain, lo, hi) -> np.ndarray:
    """Squared distance of solid boxes to the polygon boundary."""
    out = np.empty(len(lo))
    chunk = max(1, 2_000_000 // max(1, dom.n_edges))
    for i in range(0, len(lo), chunk):
        d2 = _box_segment_dist_sq(lo[i : i + chunk], hi[i : i + chunk], dom.edges)
        out[i : i + chunk] = d2.min(axis=1)
    return out


def whitney_decompose(dom: PolygonalDomain, max_level: int) -> WhitneyDecomposition:
    """Maximal dyadic cubes with diam(Q) <= d(Q, boundary), truncated at max_level.

    A cube is accepted when its center lies in the open domain, the Whitney
    predicate holds, and its parent was not acceptable. Cubes meeting the
    boundary are subdivided; cubes fully outside are pruned.
    """
    if max_level < 2:
        raise ParameterError("max_level must be >= 2")
    frame = frame_for_domain(dom)
    origin = np.asarray(frame.origin)

    acc_levels, acc_indices, acc_d, acc_d2 = [], [], [], []
    active = np.zeros((1, 2), dtype=np.int64)  # the frame itself, level 0
    for level in range(0, max_level + 1):
        if len(active) == 0:
            break
        side = frame.cube_side(level)
        lo = origin + active * side
        hi = lo + side
        centers = lo + side / 2.0
        d2 = boxes_boundary_dist_sq(dom, lo, hi)
        cdist = geometry.boundary_distances(dom, centers)
        inside = geometry.contains_many(dom, centers, dist=cdist)
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
        parents = active[split]
        if len(parents) == 0:
            active = parents
            continue
        offs = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.int64)
        active = (parents[:, None, :] * 2 + offs[None, :, :]).reshape(-1, 2)

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


def _touch_kind(lo1, hi1, lo2, hi2):
    """0 = disjoint, 1 = corner contact, 2 = face contact (positive overlap on one axis)."""
    alo0, ahi0 = max(lo1[0], lo2[0]), min(hi1[0], hi2[0])
    alo1, ahi1 = max(lo1[1], lo2[1]), min(hi1[1], hi2[1])
    if alo0 > ahi0 or alo1 > ahi1:
        return 0
    deg0 = alo0 == ahi0
    deg1 = alo1 == ahi1
    if deg0 and deg1:
        return 1
    if deg0 != deg1:
        return 2
    return 0  # positive-area overlap cannot happen for disjoint-interior cubes


def _adjacency(dec: WhitneyDecomposition):
    """Neighbor and face-neighbor lists via exact integer span tests.

    Touching Whitney cubes differ by at most two levels (the sandwich forces
    a size ratio <= 4), so the candidate search is restricted accordingly.
    """
    n = len(dec)
    lookup = _cube_lookup(dec)
    L = int(dec.levels.max())
    lo, hi = dec.spans(L)
    present = sorted(set(int(l) for l in dec.levels))
    neighbors = [[] for _ in range(n)]
    face_neighbors = [[] for _ in range(n)]
    for t in range(n):
        l = int(dec.levels[t])
        i, j = (int(v) for v in dec.indices[t])
        cands = set()
        for l2 in present:
            if abs(l2 - l) > 2:
                continue
            if l2 <= l:
                ci, cj = i >> (l - l2), j >> (l - l2)
                for di in (-1, 0, 1):
                    for dj in (-1, 0, 1):
                        key = (l2, ci + di, cj + dj)
                        s = lookup.get(key)
                        if s is not None and s != t:
                            cands.add(s)
            else:
                s = 1 << (l2 - l)
                xs = list(range(i * s - 1, (i + 1) * s + 1))
                ys = list(range(j * s - 1, (j + 1) * s + 1))
                ring = [(x, ys[0]) for x in xs] + [(x, ys[-1]) for x in xs]
                ring += [(xs[0], y) for y in ys[1:-1]] + [(xs[-1], y) for y in ys[1:-1]]
                for key2 in ring:
                    sidx = lookup.get((l2, key2[0], key2[1]))
                    if sidx is not None and sidx != t:
                        cands.add(sidx)
        for s in cands:
            kind = _touch_kind(lo[t], hi[t], lo[s], hi[s])
            if kind:
                neighbors[t].append(s)
            if kind == 2:
                face_neighbors[t].append(s)
    for lst in neighbors:
        lst.sort()
    for lst in face_neighbors:
        lst.sort()
    return neighbors, face_neighbors


# ---------------------------------------------------------------------------
# serialization


def decomposition_to_json(dec: WhitneyDecomposition) -> str:
    obj = {
        "frame": {"origin": list(dec.frame.origin), "size": dec.frame.size},
        "max_level": dec.max_level,
        "collar_width": dec.collar_width,
        "cubes": [
            {
                "id": t,
                "level": int(dec.levels[t]),
                "index": [int(v) for v in dec.indices[t]],
                "dist": float(dec.dist[t]),
            }
            for t in range(len(dec))
        ],
        "neighbors": dec.neighbors,
        "face_neighbors": dec.face_neighbors,
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
        neighbors=[list(x) for x in obj["neighbors"]],
        face_neighbors=[list(x) for x in obj["face_neighbors"]],
        collar_width=obj["collar_width"],
    )
