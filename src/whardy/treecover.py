"""Rooted tree structure on Whitney cubes with shadows, chains and transfer boxes.

The tree is a breadth-first spanning tree of the face-neighbor graph. The
expansion constant K is the smallest concentric scaling of each cube that
contains the bounding hull of its shadow, measured exactly in integer frame
coordinates. Transfer boxes B_t sit astride the shared face of a cube and
its parent; their coordinates are integers in units of 1/32 of the finest
cube side, so disjointness and inclusion checks are exact.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConnectivityError, ParameterError, StructureError
from .geometry import centroid, index_ranges
from .whitney import EXPANSION, WhitneyDecomposition


@dataclass
class TreeCovering:
    """Rooted tree over cube indices plus the geometric covering data.

    The root, depths, children and the sweep schedule are derived from
    ``parent``; K is derived from ``spans32`` when the tree has integer
    geometry (NaN otherwise). A parent array with no single root, an index
    out of range or a cycle raises StructureError.
    """

    parent: np.ndarray  # (N,) int, -1 at the root
    ell: np.ndarray  # cube side lengths in frame units
    level: np.ndarray  # dyadic size class (ell = 2^-level for Whitney trees)
    decomposition: WhitneyDecomposition | None = None
    ndim: int = 2
    # integer geometry used by exact checks: cube spans (N, 2, ndim) in
    # units of the finest side, transfer boxes B_t (N, 2, ndim) in units of
    # (finest side)/32; B_t exists where parent >= 0, the root row is zeros
    spans32: np.ndarray | None = field(default=None, repr=False)
    boxes32: np.ndarray | None = field(default=None, repr=False)
    root: int = field(init=False)
    depth: np.ndarray = field(init=False, repr=False)
    # CSR pair (ptr, idx): the children of p are idx[ptr[p]:ptr[p + 1]], ascending
    children: tuple = field(init=False, repr=False)
    # (kids, parents) index arrays, deepest layer first; see accumulate_up
    schedule: list = field(init=False, repr=False)
    K_frac: Fraction = field(init=False)
    K: float = field(init=False)

    def __post_init__(self):
        self.parent = parent = np.asarray(self.parent, dtype=np.int64)
        roots = np.flatnonzero(parent < 0)
        if len(roots) != 1:
            raise StructureError(f"tree needs exactly one root, got {len(roots)}")
        if (parent >= len(parent)).any():
            raise StructureError("parent index out of range")
        self.root = int(roots[0])
        self.depth = _depths(parent, self.root)
        self.children, self.schedule = _sweep_schedule(parent, self.depth)
        if self.spans32 is None:
            self.K_frac, self.K = Fraction(0), math.nan
        else:
            self.K_frac = _expansion_constant(self)
            self.K = float(self.K_frac)

    def __len__(self):
        return len(self.parent)

    @property
    def is_chain(self) -> bool:
        return bool((np.diff(self.children[0]) <= 1).all())

    def ratio_u_over_b(self) -> float:
        """Reported C2 bound: max over nodes of |U_t| / |B_t|.

        U_t is the Whitney expansion (17/16) Q_t, so the ratio is defined for
        Whitney trees only; other trees raise StructureError. Both volumes
        are taken in the integer 1/32 lattice of ``boxes32``, where a cube of
        ``spans32`` side w has side 32 w.
        """
        if self.decomposition is None:
            raise StructureError("|U_t| / |B_t| needs a Whitney tree: U_t = (17/16) Q_t "
                                 "holds only there")
        kids = np.flatnonzero(self.parent >= 0)
        if not len(kids):
            return 0.0
        b = self.boxes32[kids]
        bt = np.prod(b[:, 1] - b[:, 0], axis=1)
        side = 32 * (self.spans32[kids, 1, 0] - self.spans32[kids, 0, 0])
        ut = (EXPANSION * side) ** self.ndim
        return float((ut / bt).max())


@dataclass
class ShadowStats:
    """Per-node cube counts by size class along chains and shadows."""

    W: np.ndarray  # (N, L) shadow counts per size class
    P: np.ndarray  # (N, L) root-to-node chain counts, root excluded
    levels: np.ndarray
    shadow_size: np.ndarray


# ---------------------------------------------------------------------------
# tree sweeps


def _depths(parent: np.ndarray, root: int) -> np.ndarray:
    """Edges from every node up to the root, by pointer doubling.

    Invariant: depth[t] counts the edges from t to anc[t]; the root is a
    fixed point at 0. After k rounds anc[t] is the 2^k-th ancestor, so
    bit_length(N) rounds reach the root from every node unless it sits on a
    cycle.
    """
    anc = np.where(parent < 0, np.arange(len(parent)), parent)
    depth = (parent >= 0).astype(np.int64)
    for _ in range(len(parent).bit_length()):
        depth = depth + depth[anc]
        anc = anc[anc]
    if (anc != root).any():
        t = int(np.argmax(anc != root))
        raise StructureError(f"node {t} never reaches the root: the parents form a cycle")
    return depth


def _sweep_schedule(parent: np.ndarray, depth: np.ndarray):
    """Children CSR pair and the layered sweep schedule of a parent array.

    The children of p are idx[ptr[p]:ptr[p + 1]], by increasing index. The
    schedule is a list of (kids, parents) steps, deepest layer first; step
    r of a layer holds the r-th child from the end of every parent there,
    so no parent repeats inside a step and the children of p fold in
    reverse order. That order fixes the last bits of every float sum.
    """
    n = len(parent)
    kids = np.flatnonzero(parent >= 0)
    kids = kids[np.argsort(parent[kids], kind="stable")]
    ends = np.cumsum(np.bincount(parent[kids], minlength=n))
    children = (np.concatenate([[0], ends]), kids)
    rank = ends[parent[kids]] - 1 - np.arange(len(kids))  # 0 = last child
    step = np.lexsort((rank, -depth[kids]))
    kids, rank = kids[step], rank[step]
    d = depth[kids]
    cuts = np.flatnonzero((d[1:] != d[:-1]) | (rank[1:] != rank[:-1])) + 1
    schedule = [(k, parent[k]) for k in np.split(kids, cuts) if len(k)]
    return children, schedule


def accumulate_up(tree: TreeCovering, x, op=np.add) -> np.ndarray:
    """Fold every shadow into its top node: out = x, then for each parent p,
    ``out[p] = op(out[p], out[c])`` over its children c, leaves first.

    ``x`` is indexed by node along its first axis; rows may be vectors.
    """
    out = np.array(x, copy=True)
    for kids, parents in tree.schedule:
        out[parents] = op(out[parents], out[kids])
    return out


def accumulate_down(tree: TreeCovering, x, op=np.add) -> np.ndarray:
    """Fold every root path into its end node: out[root] = x[root], then
    ``out[c] = op(out[p], x[c])`` for each child c of p, root first."""
    x = np.asarray(x)
    out = x.copy()
    for kids, parents in reversed(tree.schedule):
        out[kids] = op(out[parents], x[kids])
    return out


def _expansion_constant(tree: TreeCovering) -> Fraction:
    """Smallest K >= 1 with the hull of every shadow inside K Q_t, exactly.

    Per node, reach / w is the ratio of the doubled hull reach from the
    doubled center to the side w, all integers of ``spans32``. Float
    division rounds monotonically, so the exact maximum is among the nodes
    whose float ratio equals the float maximum; only those are compared as
    fractions.
    """
    lo, hi = tree.spans32[:, 0], tree.spans32[:, 1]
    h_lo = accumulate_up(tree, lo, np.minimum)
    h_hi = accumulate_up(tree, hi, np.maximum)
    ctr2 = lo + hi  # doubled centers
    reach = np.maximum(2 * h_hi - ctr2, ctr2 - 2 * h_lo).max(axis=1)
    w = hi[:, 0] - lo[:, 0]
    ratio = reach / w
    top = np.flatnonzero(ratio == ratio.max())
    return max([Fraction(1)] + [Fraction(int(reach[t]), int(w[t])) for t in top])


# ---------------------------------------------------------------------------
# Whitney tree


def root_center(dec: WhitneyDecomposition, preferred=None):
    """A point covered by some cube: ``preferred`` when possible, else the
    center of the deepest-inside cube (truncation can leave the centroid of
    a slit-like domain in the uncovered collar)."""
    if preferred is not None and dec.locate(preferred) is not None:
        return tuple(preferred)
    t = int(np.argmax(dec.dist))
    side = dec.frame.cube_side(int(dec.levels[t]))
    return tuple(o + int(i) * side + side / 2.0 for o, i in zip(dec.frame.origin, dec.indices[t]))


def build_tree(dec: WhitneyDecomposition, center=None) -> TreeCovering:
    """BFS spanning tree of the face-neighbor graph rooted at the cube holding center.

    Without a center the root is ``root_center(dec, centroid(dec.domain))``.
    Parents are BFS predecessors, tie-broken by larger cube first and then
    lexicographic (level, index). A disconnected graph raises
    ConnectivityError with the component sizes, largest first, which the
    same BFS finds.
    """
    if center is None:
        center = root_center(dec, centroid(dec.domain))
    root = dec.locate(center)
    if root is None:
        raise ParameterError("center is not inside any accepted cube")
    n = len(dec)
    ptr, nbr = dec.face_neighbors
    counts = np.diff(ptr)
    depth = np.full(n, -1, dtype=np.int64)

    def reach(start) -> int:
        """BFS depths from ``start`` over its unreached component; its size."""
        depth[start] = 0
        frontier, d, size = np.array([start]), 0, 1
        while len(frontier):
            d += 1
            reached = nbr[index_ranges(ptr[frontier], counts[frontier])]
            frontier = np.unique(reached[depth[reached] < 0])
            depth[frontier] = d
            size += len(frontier)
        return size

    sizes = [reach(root)]
    for t in np.flatnonzero(depth < 0).tolist():  # each other component from its first cube
        if depth[t] < 0:
            sizes.append(reach(t))
    if len(sizes) > 1:
        sizes.sort(reverse=True)
        raise ConnectivityError(
            f"face-neighbor graph disconnected; component sizes {sizes}",
            component_sizes=sizes,
        )

    # Ids are in (level, index) order (checked by WhitneyDecomposition), so
    # the smallest-id predecessor is the larger cube first, then the
    # lexicographically smallest index.
    owner = np.repeat(np.arange(n), counts)
    pred = depth[nbr] == depth[owner] - 1
    parent = np.full(n, n, dtype=np.int64)
    np.minimum.at(parent, owner[pred], nbr[pred])
    parent[root] = -1

    spans32 = np.stack(dec.spans(), axis=1)
    return TreeCovering(
        parent=parent,
        ell=np.exp2(-dec.levels.astype(float)),
        level=dec.levels.copy(),
        decomposition=dec,
        spans32=spans32,
        boxes32=_transfer_boxes(parent, spans32),
    )


def _transfer_boxes(parent, spans32):
    """B_t astride the shared face of Q_t and its parent, shape (N, 2, 2).

    Each B_t is the analytic face box. Extent: half the face length along
    the face, 1/16 of the face length across it (1/32 on each side), which
    keeps B_t inside U_t and U_{t_p} for the 17/16 expansion. Coordinates are
    exact integers in units of (finest side)/32, and pairwise disjointness
    is certified exactly over them (``_certify_disjoint``); a violation
    raises StructureError. ``spans32`` are the cube spans at the finest
    level; the root row stays zero.
    """
    kids = np.flatnonzero(parent >= 0)
    lo, hi = spans32[:, 0], spans32[:, 1]
    b_lo, b_hi = _face_box32(lo[kids], hi[kids], lo[parent[kids]], hi[parent[kids]])
    _certify_disjoint(b_lo, b_hi, kids)
    boxes32 = np.zeros_like(spans32)
    boxes32[kids] = np.stack([b_lo, b_hi], axis=1)
    return boxes32


def _face_box32(lo_t, hi_t, lo_p, hi_p):
    """Face boxes (lo, hi) of child spans [lo_t, hi_t] and parent spans
    [lo_p, hi_p], rows in finest-side units, in units of finest/32."""
    alo = np.maximum(lo_t, lo_p)
    ahi = np.minimum(hi_t, hi_p)
    deg = alo == ahi  # the face's normal axis
    if (deg.sum(axis=-1) != 1).any():
        raise StructureError("parent and child are not face-neighbors")
    span = (ahi - alo).max(axis=-1, keepdims=True)  # face length
    b_lo = np.where(deg, 32 * alo - span, 32 * alo + 8 * span)
    b_hi = np.where(deg, 32 * alo + span, 32 * ahi - 8 * span)
    return b_lo, b_hi


def _certify_disjoint(lo, hi, ids) -> None:
    """Raise StructureError unless the integer boxes [lo[k], hi[k]] have
    pairwise disjoint interiors; boxes that share only an edge pass. ``ids``
    names the boxes in the message.

    A box of size class c has extent <= 2^c, so its interior meets at most
    2 x 2 cells of the grid of side 2^c, and of every coarser grid. Boxes
    whose interiors meet share a cell of the grid of the larger class, so
    each box is tested only against the boxes of its own or a larger class
    that meet the same cells of that class's grid.
    """
    if len(lo) < 2:
        return
    lo, hi = lo - lo.min(axis=0), hi - lo.min(axis=0)
    cls = np.frexp(np.maximum((hi - lo).max(axis=1) - 1, 0))[1]  # least c, extent <= 2^c
    stride = int(hi.max()) + 1

    def cells(rows, c):
        """(row, cell key) for each cell of side 2^c that a row's interior meets."""
        clo, chi = lo[rows] >> c, (hi[rows] - 1) >> c
        out_rows, out_keys = [], []
        for dx in (0, 1):
            for dy in (0, 1):
                x, y = clo[:, 0] + dx, clo[:, 1] + dy
                ok = (x <= chi[:, 0]) & (y <= chi[:, 1])
                out_rows.append(rows[ok])
                out_keys.append(x[ok] * stride + y[ok])
        return np.concatenate(out_rows), np.concatenate(out_keys)

    found = []
    for c in np.unique(cls):
        rows, keys = cells(np.flatnonzero(cls == c), c)
        srt = np.argsort(keys, kind="stable")
        rows, keys = rows[srt], keys[srt]
        q_rows, q_keys = cells(np.flatnonzero(cls <= c), c)
        first = np.searchsorted(keys, q_keys, side="left")
        count = np.searchsorted(keys, q_keys, side="right") - first
        found.append((np.repeat(q_rows, count), rows[index_ranges(first, count)]))
    i = np.concatenate([f[0] for f in found])
    j = np.concatenate([f[1] for f in found])
    hit = (i != j) & np.all((lo[i] < hi[j]) & (lo[j] < hi[i]), axis=1)
    if hit.any():
        a, b = ids[i[hit]], ids[j[hit]]
        a, b = min(zip(np.minimum(a, b).tolist(), np.maximum(a, b).tolist()))
        raise StructureError(f"transfer boxes of nodes {a} and {b} overlap")


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
    # exact integer geometry in units of 1/m
    lo = np.asarray(cells, dtype=np.int64) - 1
    spans32 = np.stack([lo, lo + 1], axis=1)
    parent = np.arange(-1, N - 1, dtype=np.int64)
    boxes32 = np.zeros_like(spans32)
    boxes32[1:] = 32 * spans32[parent[1:]]
    return TreeCovering(
        parent=parent,
        ell=np.full(N, 1.0 / m),
        level=np.zeros(N, dtype=np.int64),
        decomposition=None,
        ndim=n,
        spans32=spans32,
        boxes32=boxes32,
    )


def synthetic_tree(parent, ell, ndim: int = 2) -> TreeCovering:
    """TreeCovering over abstract indices, for chain/tree studies without geometry."""
    ell = np.asarray(ell, dtype=float)
    with np.errstate(divide="ignore"):
        level = np.round(-np.log2(ell)).astype(np.int64)
    return TreeCovering(
        parent=parent,
        ell=ell,
        level=np.maximum(level, 0),
        decomposition=None,
        ndim=ndim,
    )


# ---------------------------------------------------------------------------
# statistics


def shadow_stats(tree: TreeCovering) -> ShadowStats:
    """Exact P_i(t) and W_i(t) counts; one up-sweep and one down-sweep."""
    n = len(tree)
    one = np.zeros((n, int(tree.level.max()) + 1), dtype=np.int64)
    one[np.arange(n), tree.level] = 1
    W = accumulate_up(tree, one)
    one[tree.root] = 0  # chain counts exclude the root
    P = accumulate_down(tree, one)
    return ShadowStats(
        W=W,
        P=P,
        levels=tree.level.copy(),
        shadow_size=W.sum(axis=1),
    )


def verify_shadow_lemma(stats: ShadowStats, lam: float) -> float:
    """Empirical constant C = max W_i(t) * 2^{-(i - k_t) * lambda}.

    Finite by construction; the quantity of interest is its stability under
    refinement when lambda exceeds the Assouad dimension of the boundary.
    """
    if not 0 < lam < math.inf:
        raise ParameterError(f"lambda must be finite and positive, got {lam!r}")
    n, nlev = stats.W.shape
    i = np.arange(nlev)[None, :]
    k = stats.levels[:, None]
    with np.errstate(over="ignore"):
        weights = np.exp2(-(i - k) * lam)
    vals = np.where(stats.W > 0, stats.W * weights, 0.0)
    return float(vals.max())


# ---------------------------------------------------------------------------
# serialization


def _box_texts(tree: TreeCovering):
    """The JSON text of each node's world transfer box B_t as center and
    half widths, one string a node: null at the root and for trees without
    boxes. ``json`` writes a finite float with ``float.__repr__``, which
    ``str`` of a float list uses too."""
    if tree.boxes32 is None:
        yield from itertools.repeat("null", len(tree))
        return
    dec = tree.decomposition
    if dec is None:  # cube chain: origin 0, cells of side ell
        origin, unit = 0.0, float(tree.ell[0]) / 32.0
    else:
        origin = np.asarray(dec.frame.origin)
        unit = dec.frame.cube_side(dec.finest_level) / 32.0
    lo, hi = origin + tree.boxes32[:, 0] * unit, origin + tree.boxes32[:, 1] * unit
    center, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    if not (np.isfinite(center).all() and np.isfinite(half).all()):
        raise ParameterError("transfer boxes must be finite to be written as JSON")
    for t, (c, h) in enumerate(zip(center, half)):
        yield ("null" if t == tree.root
               else f'{{"center": {c.tolist()}, "half_widths": {h.tolist()}}}')


def tree_to_json(tree: TreeCovering) -> str:
    """Root, parents, K and the world transfer boxes B_t: the text
    ``json.dumps`` writes with sorted keys, with no dict or list held per
    node. K and the root still go through ``json.dumps``."""
    boxes = ", ".join(_box_texts(tree))
    return (f'{{"B": [{boxes}], "K": {json.dumps(tree.K)}, '
            f'"parent": {tree.parent.tolist()}, "root": {json.dumps(tree.root)}}}')
