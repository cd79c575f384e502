"""C-orthogonal decomposition of a mean-zero grid function over a tree covering.

The working grid is aligned to the Whitney frame with cell size one quarter
of the finest cube side, so every cube is a union of cells. Transfer mass
moves through the tree's box B_t rounded outward to whole cells: a block
astride the middle half of the shared face that contains the analytic box,
so |U_t| over its area is at most the tree's reported |U_t|/|B_t|. The
block touches the face, so each piece g_t is supported on cells whose
closed squares meet the expanded cube U_t (exact box arithmetic), and all
integrals below are exact cell sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError
from .fields import (GridFunction, _abs_power, _binary_artifact, _weighted_sum, grid_dims,
                     make_grid)
from .treecover import TreeCovering, accumulate_up


@dataclass
class Decomposition:
    """The pieces g_t as one CSR: the cells of node t, ascending, are
    ``cells[ptr[t]:ptr[t + 1]]`` and g_t takes ``values`` there."""

    tree: TreeCovering
    grid: GridFunction
    ptr: np.ndarray  # (n + 1,)
    cells: np.ndarray  # flat cell indices of every supp(g_t), node by node
    values: np.ndarray  # g_t on those cells
    uncovered_count: int = 0

    def piece(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """(cells, values) of g_t."""
        a, b = self.ptr[t], self.ptr[t + 1]
        return self.cells[a:b], self.values[a:b]

    def reconstruct(self) -> np.ndarray:
        nx, ny = self.grid.dims
        return np.bincount(self.cells, weights=self.values, minlength=nx * ny).reshape(nx, ny)

    def node_integral(self, t: int) -> float:
        return float(self.piece(t)[1].sum() * self.grid.h**2)


def grid_layout(tree: TreeCovering):
    """(h, origin, dims, frame_offset) of ``decomposition_grid(tree)``, unsampled."""
    dec = tree.decomposition
    if dec is None:
        raise ParameterError("tree has no Whitney decomposition attached")
    h = dec.frame.cube_side(dec.finest_level) / 4.0
    lo = dec.domain.bounding_box()[0]
    fx, fy = dec.frame.origin
    i0 = int(np.floor((lo[0] - fx) / h))
    j0 = int(np.floor((lo[1] - fy) / h))
    origin = (fx + i0 * h, fy + j0 * h)
    dims = grid_dims(dec.domain, h, origin)
    # grid cell (i, j) sits at frame-lattice cell (i0+i, j0+j)
    return h, origin, dims, (i0, j0)


def _frame_offset(tree: TreeCovering, grid: GridFunction) -> tuple[int, int]:
    """Frame-lattice cell of grid cell (0, 0); the grid must be laid out as
    ``decomposition_grid(tree)``, on the tree's own domain (a domain with the
    same bounding box and finest level has the same layout)."""
    h, origin, dims, offset = grid_layout(tree)
    if ((grid.h, grid.origin, grid.dims) != (h, origin, dims)
            or grid.domain is not tree.decomposition.domain):
        raise ParameterError(
            "grid is not decomposition_grid(tree): its layout or domain differs")
    return offset


def decomposition_grid(tree: TreeCovering) -> GridFunction:
    """Frame-aligned grid with h = (finest cube side) / 4 covering the domain,
    carrying the cube id of every cell (``assign_cells``)."""
    h, origin, _, _ = grid_layout(tree)
    g = make_grid(tree.decomposition.domain, h, origin=origin)
    return replace(g, assignment=assign_cells(tree, g))


def assign_cells(tree: TreeCovering, grid: GridFunction) -> np.ndarray:
    """Cube id owning each masked cell center, -1 for the uncovered collar."""
    i0, j0 = _frame_offset(tree, grid)
    out = np.full(grid.dims, -1, dtype=np.int64)
    cells = np.flatnonzero(grid.mask)
    gi, gj = np.divmod(cells, grid.dims[1])
    # a grid cell is a quarter of a finest-level cube side
    out.flat[cells] = tree.decomposition.owner((gi + i0) >> 2, (gj + j0) >> 2)
    return out


def covered_mean_zero(grid: GridFunction, values) -> GridFunction:
    """values zeroed on the uncovered cells, minus their mean over the covered cells."""
    g = grid.with_values(values)  # checks the shape
    cov = g.covered
    vals = np.where(cov, g.values, 0.0)
    vals[cov] -= vals[cov].mean()
    return g.with_values(vals)


def collar_probe(tree: TreeCovering, grid: GridFunction) -> GridFunction:
    """Mean-zeroed indicator of the finest-level cubes: pushes transfer mass
    through boundary cubes at the truncation scale."""
    _frame_offset(tree, grid)  # raises unless grid is laid out for tree
    fine = np.where(tree.level == tree.level.max())[0]
    return covered_mean_zero(grid, np.where(grid.covered & np.isin(grid.assignment, fine),
                                            1.0, 0.0))


def _snap_b_cells(tree: TreeCovering, grid: GridFunction) -> tuple[np.ndarray, np.ndarray]:
    """Cells of every transfer box ``tree.boxes32[t]``, snapped to the grid.

    Returns a CSR pair (ptr, cells): the cells of B_t, ascending, are
    ``cells[ptr[t]:ptr[t + 1]]``; the root's row is empty.

    One grid cell is 8 units of the (finest side)/32 lattice, and each box
    rounds outward to whole cells, so the snapped B_t contains the analytic
    one. Face lengths are powers of two, so across the face this is
    max(1, half-width // 8) cells into each cube; along it the middle half
    of the face is whole cells already. Distinct boxes stay disjoint, and
    the block sits inside both expanded cubes up to one-cell slack
    (support is checked cell-square against U_t).
    """
    n = len(tree)
    kids = np.flatnonzero(tree.parent >= 0)
    offset = np.array(_frame_offset(tree, grid))
    lo = tree.boxes32[kids, 0] // 8 - offset
    hi = -(-tree.boxes32[kids, 1] // 8) - offset
    nx, ny = grid.dims
    if (lo < 0).any() or (hi > (nx, ny)).any():
        raise ParameterError("snapped transfer box escapes the grid")
    # each rectangle row-major, so its flat ids i * ny + j ascend
    wy = hi[:, 1] - lo[:, 1]
    count = np.zeros(n, dtype=np.int64)
    count[kids] = (hi[:, 0] - lo[:, 0]) * wy
    ptr = np.concatenate([[0], np.cumsum(count)])
    box = np.repeat(np.arange(len(kids)), count[kids])
    k = np.arange(ptr[-1]) - ptr[kids][box]
    di, dj = np.divmod(k, wy[box])
    return ptr, (lo[box, 0] + di) * ny + lo[box, 1] + dj


def c_decompose(tree: TreeCovering, g: GridFunction) -> Decomposition:
    """Split g into pieces g_t with supp in U_t and zero integral each.

    g_t = g. restricted to Q_t, plus the children's transferred masses on
    their boxes, minus the own shadow mass m_t spread over B_t. Requires g
    on ``decomposition_grid(tree)``, mean-zero over the covered cells;
    collar cells are excluded and counted.
    """
    bptr, b_cells = _snap_b_cells(tree, g)
    covered = g.covered
    uncovered = int((g.mask & ~covered).sum())
    h2 = g.h * g.h
    gv = np.where(covered, g.values, 0.0)
    total = float(gv.sum()) * h2
    l1 = float(np.abs(gv).sum()) * h2
    if l1 > 0 and abs(total) > 1e-10 * l1:
        raise ParameterError(
            f"input is not mean-zero over the covered region: integral {total:.3e}"
        )

    n = len(tree)
    own_cells = np.flatnonzero(covered)
    own_node = g.assignment.flat[own_cells]
    own_vals = gv.flat[own_cells]
    m = accumulate_up(tree, np.bincount(own_node, weights=own_vals * h2, minlength=n))
    b_count = np.diff(bptr)
    b_node = np.repeat(np.arange(n), b_count)
    mass = m[b_node] * (1.0 / (b_count[b_node] * h2))  # m_s phi_s on each cell of B_s
    # (node, cell, value) triplets: each node's own cells, then the masses its
    # children move onto their boxes, then its own mass taken off its box
    node = np.concatenate([own_node, tree.parent[b_node], b_node])
    cell = np.concatenate([own_cells, b_cells, b_cells])
    val = np.concatenate([own_vals, mass, -mass])
    # a cell can carry an own value plus a transfer; bincount adds each
    # (node, cell) pair's values in the order above, starting from 0.0
    uniq, inv = np.unique(node * g.values.size + cell, return_inverse=True)
    t, cells = np.divmod(uniq, g.values.size)
    return Decomposition(
        tree=tree,
        grid=g,
        ptr=np.searchsorted(t, np.arange(n + 1)),
        cells=cells,
        values=np.bincount(inv, weights=val, minlength=len(uniq)),
        uncovered_count=uncovered,
    )


def check_q_beta(q: float, beta: float) -> None:
    """The decomposition ratio and the divergence estimate take a finite
    q > 1 and a finite beta."""
    if not (math.isfinite(q) and q > 1):
        raise ParameterError(f"q must be finite and exceed 1, got {q!r}")
    if not math.isfinite(beta):
        raise ParameterError(f"beta must be finite, got {beta!r}")


def decomposition_ratio(dec: Decomposition, q: float, beta: float) -> float:
    """(sum_t ||g_t||_q^q weighted d^(-beta q))^(1/q) over ||g||, same weight."""
    check_q_beta(q, beta)
    power = -beta * q
    grid = dec.grid
    num = _weighted_sum(_abs_power(dec.values, q), grid.dist.ravel()[dec.cells], power)
    covered = grid.covered
    den = _weighted_sum(_abs_power(grid.values[covered], q), grid.dist[covered], power)
    if den == 0.0:
        raise ParameterError("zero denominator in decomposition ratio")
    return (num ** (1.0 / q)) / (den ** (1.0 / q))


# ---------------------------------------------------------------------------
# dump


def dump_decomposition(dec: Decomposition) -> bytearray:
    """Single binary container: a JSON index line, then node by node the
    node's cell ids as little-endian int64 and their values as float64."""
    a, b = dec.ptr[:-1], dec.ptr[1:]
    count = b - a
    # node t's block holds 8-byte ids then 8-byte values, so it starts at 16 ptr[t]
    index = [{"node": t, "offset": 16 * s, "count": c}
             for t, (s, c) in enumerate(zip(a.tolist(), count.tolist()))]
    out, body = _binary_artifact({"h": dec.grid.h, "dims": list(dec.grid.dims), "index": index},
                                 "<i8", 2 * len(dec.cells))
    # the id of piece entry k sits at word ptr[t] + k of the body, its value's
    # bits at ptr[t + 1] + k, for the node t that holds k
    k = np.arange(len(dec.cells))
    node = np.repeat(np.arange(len(count)), count)
    body[a[node] + k] = dec.cells
    body[b[node] + k] = np.asarray(dec.values, dtype="<f8").view("<i8")
    return out
