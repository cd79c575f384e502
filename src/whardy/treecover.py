"""Rooted tree structure on Whitney cubes with shadows, chains and transfer boxes.

The tree is a breadth-first spanning tree of the face-neighbor graph. The
expansion constant K is the smallest concentric scaling of each cube that
contains the bounding hull of its shadow, measured exactly in integer frame
coordinates. Transfer boxes B_t sit astride the shared face of a cube and
its parent; their coordinates are integers in units of 1/32 of the finest
cube side, so disjointness and inclusion checks are exact.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConnectivityError, ParameterError, StructureError
from .geometry import centroid
from .whitney import EXPANSION, Box, WhitneyDecomposition


@dataclass
class TreeCovering:
    """Rooted tree over cube indices plus the geometric covering data."""

    root: int
    parent: np.ndarray  # (N,) int, -1 at the root
    children: list
    order: np.ndarray  # root-first topological order
    depth: np.ndarray
    ell: np.ndarray  # cube side lengths in frame units
    level: np.ndarray  # dyadic size class (ell = 2^-level for Whitney trees)
    K: float
    K_frac: Fraction
    boxes: list  # transfer boxes B_t (None at the root)
    decomposition: WhitneyDecomposition | None = None
    kind: str = "whitney"
    expansion_factor: float = EXPANSION
    ndim: int = 2
    # integer geometry used by exact checks: cube spans (N, 2, ndim) in
    # units of the finest side, B_t boxes in units of (finest side)/32
    spans32: np.ndarray | None = field(default=None, repr=False)
    boxes32: list | None = field(default=None, repr=False)

    def __len__(self):
        return len(self.parent)

    @property
    def is_chain(self) -> bool:
        return all(len(c) <= 1 for c in self.children)

    def subtree(self, t: int) -> list:
        """Node ids of the shadow (subtree rooted at t), by explicit walk."""
        out, stack = [], [t]
        while stack:
            u = stack.pop()
            out.append(u)
            stack.extend(self.children[u])
        return out

    def ratio_u_over_b(self) -> float:
        """Reported C2 bound: max over nodes of |U_t| / |B_t|.

        Both volumes are taken in the integer 1/32 lattice of ``boxes32``,
        where a cube of ``spans32`` side w has side 32 w.
        """
        kids = [t for t, b in enumerate(self.boxes32 or []) if b is not None]
        if not kids:
            return 0.0
        b = np.asarray([self.boxes32[t] for t in kids])  # (k, 2, ndim)
        bt = np.prod(b[:, 1] - b[:, 0], axis=1)
        side = 32 * (self.spans32[kids, 1, 0] - self.spans32[kids, 0, 0])
        ut = (self.expansion_factor * side) ** self.ndim
        return float((ut / bt).max())


@dataclass
class ShadowStats:
    """Per-node cube counts by size class along chains and shadows."""

    W: np.ndarray  # (N, L) shadow counts per size class
    P: np.ndarray  # (N, L) root-to-node chain counts, root excluded
    levels: np.ndarray
    depth: np.ndarray
    shadow_size: np.ndarray


# ---------------------------------------------------------------------------
# Whitney tree


def root_center(dec: WhitneyDecomposition, preferred=None):
    """A point covered by some cube: ``preferred`` when possible, else the
    center of the deepest-inside cube (truncation can leave the centroid of
    a slit-like domain in the uncovered collar)."""
    if preferred is not None and dec.locate(preferred) is not None:
        return tuple(preferred)
    t = int(np.argmax(dec.dist))
    return dec.cube(t).center


def build_tree(dec: WhitneyDecomposition, center=None) -> TreeCovering:
    """BFS spanning tree of the face-neighbor graph rooted at the cube holding center.

    Without a center the root is ``root_center(dec, centroid(dec.domain))``.
    Parents are BFS predecessors, tie-broken by larger cube first and then
    lexicographic (level, index).
    """
    if center is None:
        center = root_center(dec, centroid(dec.domain))
    root = dec.locate(center)
    if root is None:
        raise ParameterError("center is not inside any accepted cube")
    n = len(dec)
    depth = np.full(n, -1, dtype=np.int64)
    depth[root] = 0
    frontier = [root]
    layers = [frontier]
    while frontier:
        nxt = set()
        for u in frontier:
            for v in dec.face_neighbors[u]:
                if depth[v] < 0:
                    nxt.add(v)
        frontier = sorted(nxt)
        if frontier:
            for v in frontier:
                depth[v] = depth[layers[-1][0]] + 1
            layers.append(frontier)
    if (depth < 0).any():
        sizes = _component_sizes(dec)
        raise ConnectivityError(
            f"face-neighbor graph disconnected; component sizes {sizes}",
            component_sizes=sizes,
        )

    key = lambda s: (int(dec.levels[s]), int(dec.indices[s, 0]), int(dec.indices[s, 1]))
    parent = np.full(n, -1, dtype=np.int64)
    for t in range(n):
        if t == root:
            continue
        preds = [s for s in dec.face_neighbors[t] if depth[s] == depth[t] - 1]
        parent[t] = min(preds, key=key)
    children = [[] for _ in range(n)]
    for t in range(n):
        if parent[t] >= 0:
            children[parent[t]].append(t)
    order = np.concatenate([np.asarray(layer, dtype=np.int64) for layer in layers])

    ell = np.exp2(-dec.levels.astype(float))
    K_frac, spans32 = _expansion_constant(dec, children, order)
    boxes, boxes32 = _transfer_boxes(dec, parent)
    return TreeCovering(
        root=root,
        parent=parent,
        children=children,
        order=order,
        depth=depth,
        ell=ell,
        level=dec.levels.copy(),
        K=float(K_frac),
        K_frac=K_frac,
        boxes=boxes,
        decomposition=dec,
        kind="whitney",
        spans32=spans32,
        boxes32=boxes32,
    )


def _component_sizes(dec: WhitneyDecomposition):
    n = len(dec)
    seen = np.zeros(n, dtype=bool)
    sizes = []
    for s in range(n):
        if seen[s]:
            continue
        q = deque([s])
        seen[s] = True
        c = 0
        while q:
            u = q.popleft()
            c += 1
            for v in dec.face_neighbors[u]:
                if not seen[v]:
                    seen[v] = True
                    q.append(v)
        sizes.append(c)
    return sorted(sizes, reverse=True)


def shadow_hulls(spans_lo: np.ndarray, spans_hi: np.ndarray, children, order):
    """Bounding hulls of every shadow by one post-order accumulation."""
    h_lo = spans_lo.copy()
    h_hi = spans_hi.copy()
    for t in order[::-1]:
        for c in children[t]:
            np.minimum(h_lo[t], h_lo[c], out=h_lo[t])
            np.maximum(h_hi[t], h_hi[c], out=h_hi[t])
    return h_lo, h_hi


def _expansion_constant(dec, children, order):
    L = int(dec.levels.max())
    lo, hi = dec.spans(L)
    h_lo, h_hi = shadow_hulls(lo, hi, children, order)
    num, den = 1, 1  # K as a fraction num/den, at least 1
    for t in range(len(dec)):
        w = int(hi[t, 0] - lo[t, 0])
        ctr2 = lo[t] + hi[t]  # doubled center, exact ints
        reach = np.maximum(2 * h_hi[t] - ctr2, ctr2 - 2 * h_lo[t]).max()
        # c_t = reach / w ; keep the running max exactly
        if int(reach) * den > num * w:
            num, den = int(reach), w
    spans32 = np.stack([lo, hi], axis=1)
    return Fraction(num, den), spans32


def _topo_order(children, root, n):
    order = np.empty(n, dtype=np.int64)
    stack = [root]
    k = 0
    while stack:
        u = stack.pop()
        order[k] = u
        k += 1
        stack.extend(reversed(children[u]))
    return order


def _transfer_boxes(dec, parent):
    """B_t astride the shared face of Q_t and its parent.

    Each B_t is the analytic face box. Extent: half the face length along
    the face, 1/16 of the face length across it (1/32 on each side), which
    keeps B_t inside U_t and U_{t_p} for the 17/16 expansion. Coordinates are
    exact integers in units of (finest side)/32, and pairwise disjointness
    is certified exactly by one sweep over them (``_certify_disjoint``); a
    violation raises StructureError.
    """
    L = int(dec.levels.max())
    lo, hi = dec.spans(L)
    unit = dec.frame.cube_side(L) / 32.0
    origin = np.asarray(dec.frame.origin)
    boxes: list = [None] * len(dec)
    boxes32: list = [None] * len(dec)
    for t in range(len(dec)):
        p = int(parent[t])
        if p < 0:
            continue
        b32 = _face_box32(lo[t], hi[t], lo[p], hi[p])
        boxes32[t] = b32
        w_lo = origin + np.asarray(b32[0]) * unit
        w_hi = origin + np.asarray(b32[1]) * unit
        boxes[t] = Box(tuple(w_lo), tuple(w_hi))
    _certify_disjoint(boxes32)
    return boxes, boxes32


def _face_box32(lo_t, hi_t, lo_p, hi_p):
    alo = np.maximum(lo_t, lo_p)
    ahi = np.minimum(hi_t, hi_p)
    deg = alo == ahi
    if deg.sum() != 1:
        raise StructureError("parent and child are not face-neighbors")
    f = int(np.argmax(deg))
    o = 1 - f
    span = int(ahi[o] - alo[o])  # face length in finest-side units
    # all coordinates below are in units of finest/32
    face = int(alo[f]) * 32
    olo = int(alo[o]) * 32 + 8 * span
    ohi = int(ahi[o]) * 32 - 8 * span
    b_lo = [0, 0]
    b_hi = [0, 0]
    b_lo[f], b_hi[f] = face - span, face + span
    b_lo[o], b_hi[o] = olo, ohi
    return (tuple(b_lo), tuple(b_hi))


def _certify_disjoint(boxes32: list) -> None:
    """Raise StructureError unless the integer boxes (None entries skipped)
    have pairwise disjoint interiors; boxes that share only an edge pass.

    Sort-and-sweep: after sorting by lo_x, the only boxes after box i whose
    x-extent can meet its own are those with lo_x < hi_x[i]; only those
    pairs get the strict-inequality overlap test.
    """
    ids = np.asarray([t for t, b in enumerate(boxes32) if b is not None], dtype=np.int64)
    if len(ids) < 2:
        return
    b = np.asarray([boxes32[t] for t in ids], dtype=np.int64)  # (k, 2, ndim)
    srt = np.argsort(b[:, 0, 0], kind="stable")
    ids, lo, hi = ids[srt], b[srt, 0], b[srt, 1]
    k = len(ids)
    end = np.searchsorted(lo[:, 0], hi[:, 0], side="left")
    counts = np.maximum(end - np.arange(1, k + 1), 0)
    i = np.repeat(np.arange(k), counts)
    starts = np.cumsum(counts) - counts
    j = np.arange(len(i)) - np.repeat(starts, counts) + i + 1
    hit = np.all((lo[i] < hi[j]) & (lo[j] < hi[i]), axis=1)
    if hit.any():
        a, c = int(ids[i[hit][0]]), int(ids[j[hit][0]])
        raise StructureError(f"transfer boxes of nodes {a} and {c} overlap")


# ---------------------------------------------------------------------------
# snake chain on a partitioned cube


def serpentine_order(m: int, n: int) -> list:
    """Boustrophedon enumeration of the m^n cells; consecutive cells share a face."""
    if n == 1:
        return [(i,) for i in range(1, m + 1)]
    inner = serpentine_order(m, n - 1)
    out = []
    for j in range(1, m + 1):
        block = inner if j % 2 == 1 else inner[::-1]
        out.extend(idx + (j,) for idx in block)
    return out


def build_cube_chain(m: int, n: int = 2) -> TreeCovering:
    """Chain tree-covering of the unit cube split into m^n equal cells.

    The root sits at multi-index (1, ..., 1); U_t is the interior of
    Q_t union Q_{t_p} and B_t the interior of the parent cell, so
    |U_t| / |B_t| = 2 and the overlap constant is 2.
    """
    if m < 1:
        raise ParameterError("m must be >= 1")
    cells = serpentine_order(m, n)
    N = len(cells)
    parent = np.arange(-1, N - 1, dtype=np.int64)
    children = [[t + 1] if t + 1 < N else [] for t in range(N)]
    order = np.arange(N, dtype=np.int64)
    depth = order.copy()
    ell = np.full(N, 1.0 / m)
    level = np.zeros(N, dtype=np.int64)

    # exact integer geometry in units of (1/m)/32
    lo = (np.asarray(cells, dtype=np.int64) - 1)
    hi = lo + 1
    spans32 = np.stack([lo, hi], axis=1)
    h_lo, h_hi = shadow_hulls(lo.copy(), hi.copy(), children, order)
    num, den = 1, 1
    for t in range(N):
        ctr2 = lo[t] + hi[t]
        reach = int(np.maximum(2 * h_hi[t] - ctr2, ctr2 - 2 * h_lo[t]).max())
        if reach * den > num:
            num, den = reach, 1
    unit = (1.0 / m) / 32.0
    boxes: list = [None] * N
    boxes32: list = [None] * N
    for t in range(1, N):
        p = t - 1
        b_lo = tuple(int(v) * 32 for v in lo[p])
        b_hi = tuple(int(v) * 32 for v in hi[p])
        boxes32[t] = (b_lo, b_hi)
        boxes[t] = Box(
            tuple(v * unit for v in b_lo), tuple(v * unit for v in b_hi)
        )
    return TreeCovering(
        root=0,
        parent=parent,
        children=children,
        order=order,
        depth=depth,
        ell=ell,
        level=level,
        K=float(Fraction(num, den)),
        K_frac=Fraction(num, den),
        boxes=boxes,
        decomposition=None,
        kind="chain",
        ndim=n,
        spans32=spans32,
        boxes32=boxes32,
    )


def synthetic_tree(parent, ell, ndim: int = 2) -> TreeCovering:
    """TreeCovering over abstract indices, for chain/tree studies without geometry."""
    parent = np.asarray(parent, dtype=np.int64)
    ell = np.asarray(ell, dtype=float)
    n = len(parent)
    roots = np.where(parent < 0)[0]
    if len(roots) != 1:
        raise StructureError("synthetic tree needs exactly one root")
    root = int(roots[0])
    children = [[] for _ in range(n)]
    for t in range(n):
        if parent[t] >= 0:
            children[parent[t]].append(t)
    order = _topo_order(children, root, n)
    depth = np.zeros(n, dtype=np.int64)
    for t in order:
        if parent[t] >= 0:
            depth[t] = depth[parent[t]] + 1
    with np.errstate(divide="ignore"):
        level = np.round(-np.log2(ell)).astype(np.int64)
    level = np.maximum(level, 0)
    return TreeCovering(
        root=root,
        parent=parent,
        children=children,
        order=order,
        depth=depth,
        ell=ell,
        level=level,
        K=math.nan,
        K_frac=Fraction(0),
        boxes=[None] * n,
        decomposition=None,
        kind="synthetic",
        ndim=ndim,
    )


# ---------------------------------------------------------------------------
# statistics


def shadow_stats(tree: TreeCovering) -> ShadowStats:
    """Exact P_i(t) and W_i(t) counts; one forward and one reverse sweep."""
    n = len(tree)
    nlev = int(tree.level.max()) + 1
    W = np.zeros((n, nlev), dtype=np.int64)
    P = np.zeros((n, nlev), dtype=np.int64)
    W[np.arange(n), tree.level] = 1
    for t in tree.order[::-1]:
        p = tree.parent[t]
        if p >= 0:
            W[p] += W[t]
    for t in tree.order:
        p = tree.parent[t]
        if p >= 0:
            P[t] = P[p]
            P[t, tree.level[t]] += 1
    return ShadowStats(
        W=W,
        P=P,
        levels=tree.level.copy(),
        depth=tree.depth.copy(),
        shadow_size=W.sum(axis=1),
    )


def verify_shadow_lemma(stats: ShadowStats, lam: float) -> float:
    """Empirical constant C = max W_i(t) * 2^{-(i - k_t) * lambda}.

    Finite by construction; the quantity of interest is its stability under
    refinement when lambda exceeds the Assouad dimension of the boundary.
    """
    if lam <= 0:
        raise ParameterError("lambda must be positive")
    n, nlev = stats.W.shape
    i = np.arange(nlev)[None, :]
    k = stats.levels[:, None]
    with np.errstate(over="ignore"):
        weights = np.exp2(-(i - k) * lam)
    vals = np.where(stats.W > 0, stats.W * weights, 0.0)
    return float(vals.max())


# ---------------------------------------------------------------------------
# serialization


def tree_to_json(tree: TreeCovering) -> str:
    obj = {
        "root": int(tree.root),
        "parent": [int(p) for p in tree.parent],
        "K": tree.K,
        "B": [
            None
            if b is None
            else {"center": list(b.center), "half_widths": list(b.half_widths)}
            for b in tree.boxes
        ],
    }
    return json.dumps(obj, sort_keys=True)
