"""C-orthogonal decomposition of a mean-zero grid function over a tree covering.

The working grid is aligned to the Whitney frame with cell size one quarter
of the finest cube side, so every cube is a union of cells and every
transfer box snaps to whole cells. Transfer mass moves through a block of
cells astride the middle half of the shared face whose area scales with the
cube (the snapped version of the analytic box, keeping |U_t|/|B_t|
uniformly bounded); the block touches the face, so each piece g_t is
supported on cells whose closed squares meet the expanded cube U_t (exact
box arithmetic), and all integrals below are exact cell sums.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError
from .fields import GridFunction, make_grid
from .treecover import TreeCovering, accumulate_up
from .whitney import _csr_lists


@dataclass
class Decomposition:
    tree: TreeCovering
    grid: GridFunction
    assignment: np.ndarray  # (nx, ny) cube id per cell, -1 in the uncovered collar
    cells: list  # per node: flat cell indices of supp(g_t)
    values: list  # per node: values of g_t on those cells
    m: np.ndarray  # shadow integrals m_t
    b_cells: list  # per node: flat cell indices of the snapped transfer box
    uncovered_count: int = 0

    def reconstruct(self) -> np.ndarray:
        out = np.zeros(self.grid.dims[0] * self.grid.dims[1])
        for idx, val in zip(self.cells, self.values):
            np.add.at(out, idx, val)
        return out.reshape(self.grid.dims)

    def node_integral(self, t: int) -> float:
        return float(self.values[t].sum() * self.grid.h**2)

    def node_function(self, t: int) -> GridFunction:
        flat = np.zeros(self.grid.dims[0] * self.grid.dims[1])
        flat[self.cells[t]] = self.values[t]
        return self.grid.with_values(flat.reshape(self.grid.dims))


def grid_layout(tree: TreeCovering):
    """(h, origin, dims, frame_offset) of ``decomposition_grid(tree)``, unsampled."""
    dec = tree.decomposition
    if dec is None:
        raise ParameterError("tree has no Whitney decomposition attached")
    L = int(dec.levels.max())
    h = dec.frame.cube_side(L) / 4.0
    lo, hi = dec.domain.bounding_box()
    fx, fy = dec.frame.origin
    i0 = int(np.floor((lo[0] - fx) / h))
    j0 = int(np.floor((lo[1] - fy) / h))
    origin = (fx + i0 * h, fy + j0 * h)
    dims = (
        int(np.ceil((hi[0] - origin[0]) / h - 1e-12)),
        int(np.ceil((hi[1] - origin[1]) / h - 1e-12)),
    )
    # grid cell (i, j) sits at frame-lattice cell (i0+i, j0+j)
    return h, origin, dims, (i0, j0)


def decomposition_grid(tree: TreeCovering) -> GridFunction:
    """Frame-aligned grid with h = (finest cube side) / 4 covering the domain."""
    h, origin, dims, offset = grid_layout(tree)
    g = make_grid(tree.decomposition.domain, h, origin=origin, dims=dims)
    return replace(g, frame_offset=offset)


def assign_cells(tree: TreeCovering, grid: GridFunction) -> np.ndarray:
    """Cube id owning each masked cell center, -1 for the uncovered collar."""
    dec = tree.decomposition
    L = int(dec.levels.max())
    i0, j0 = grid.frame_offset
    nx, ny = grid.dims
    gi = np.arange(nx)[:, None] + i0
    gj = np.arange(ny)[None, :] + j0
    out = np.full((nx, ny), -1, dtype=np.int64)
    BIG = np.int64(1) << 32
    for lv in sorted(set(int(l) for l in dec.levels)):
        side_cells = 4 << (L - lv)  # cube side in grid cells
        sel = np.where(dec.levels == lv)[0]
        packed = dec.indices[sel, 0].astype(np.int64) * BIG + dec.indices[sel, 1]
        srt = np.argsort(packed)
        packed_sorted = packed[srt]
        ids_sorted = sel[srt]
        cx = gi // side_cells
        cy = gj // side_cells
        key = (cx * BIG + cy).ravel()
        pos = np.searchsorted(packed_sorted, key)
        pos = np.clip(pos, 0, len(packed_sorted) - 1)
        hit = packed_sorted[pos] == key
        flat = out.ravel()
        write = hit & (flat == -1)
        flat[write] = ids_sorted[pos[write]]
        out = flat.reshape(nx, ny)
    out[~grid.mask] = -1
    return out


def covered_mean_zero(grid: GridFunction, assignment: np.ndarray, values) -> GridFunction:
    """values zeroed on the uncovered cells, minus their mean over the covered cells."""
    cov = assignment >= 0
    vals = np.where(cov, values, 0.0)
    vals[cov] -= vals[cov].mean()
    return grid.with_values(vals)


def collar_probe(tree: TreeCovering, grid: GridFunction,
                 assignment: np.ndarray | None = None) -> GridFunction:
    """Mean-zeroed indicator of the finest-level cubes: pushes transfer mass
    through boundary cubes at the truncation scale. ``assignment`` is
    ``assign_cells(tree, grid)`` when the caller already has it."""
    if assignment is None:
        assignment = assign_cells(tree, grid)
    fine = np.where(tree.level == tree.level.max())[0]
    return covered_mean_zero(grid, assignment,
                             np.where(np.isin(assignment, fine), 1.0, 0.0))


def _snap_b_cells(tree: TreeCovering, grid: GridFunction, t: int) -> np.ndarray:
    """Cells of the transfer box ``tree.boxes32[t]``, snapped to the grid.

    One grid cell is 8 units of the (finest side)/32 lattice. The face axis
    is the box's shorter extent. Along the face the box is the middle half
    of the face (a quarter face-length clear of each endpoint, so distinct
    boxes stay disjoint), which snaps exactly. Across: max(1, half-width
    // 8) cells into each cube, the cell version of the analytic l_min/32
    reach, which keeps |U_t| / |B_t| uniformly bounded and the block inside
    both expanded cubes up to one-cell slack (support is checked
    cell-square against U_t).
    """
    lo, hi = tree.boxes32[t]
    f = int(np.argmin(hi - lo))
    o = 1 - f
    face_cell = int(lo[f] + hi[f]) // 16
    per_side = max(1, int(hi[f] - lo[f]) // 16)  # half-width // 8
    across = np.arange(face_cell - per_side, face_cell + per_side)
    along = np.arange(int(lo[o]) // 8, int(hi[o]) // 8)
    i0, j0 = grid.frame_offset
    if f == 0:
        ii = np.repeat(across, len(along)) - i0
        jj = np.tile(along, len(across)) - j0
    else:
        ii = np.tile(along, len(across)) - i0
        jj = np.repeat(across, len(along)) - j0
    nx, ny = grid.dims
    if np.any((ii < 0) | (ii >= nx) | (jj < 0) | (jj >= ny)):
        raise ParameterError("snapped transfer box escapes the grid")
    return (ii * ny + jj).astype(np.int64)


def c_decompose(tree: TreeCovering, g: GridFunction,
                assignment: np.ndarray | None = None) -> Decomposition:
    """Split g into pieces g_t with supp in U_t and zero integral each.

    g_t = g. restricted to Q_t, plus the children's transferred masses on
    their boxes, minus the own shadow mass m_t spread over B_t. Requires a
    mean-zero g over the covered cells; collar cells are excluded and
    counted. ``assignment`` is ``assign_cells(tree, g)`` when the caller
    already has it.
    """
    if g.h <= 0:
        raise ParameterError("bad grid")
    if assignment is None:
        assignment = assign_cells(tree, g)
    covered = assignment >= 0
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
    own = np.zeros(n)
    flat_assign = assignment.ravel()
    flat_g = gv.ravel()
    sel = flat_assign >= 0
    np.add.at(own, flat_assign[sel], flat_g[sel] * h2)
    m = accumulate_up(tree, own)
    # own cells grouped by cube; the stable sort keeps each group ascending
    by_cube = np.argsort(flat_assign, kind="stable")[np.count_nonzero(~sel):]
    own_cells = np.split(by_cube, np.cumsum(np.bincount(flat_assign[sel], minlength=n))[:-1])

    b_cells: list = [None] * n
    phi: list = [None] * n
    for t in range(n):
        if tree.parent[t] < 0:
            continue
        idx = _snap_b_cells(tree, g, t)
        b_cells[t] = idx
        phi[t] = 1.0 / (len(idx) * h2)

    cells: list = [None] * n
    values: list = [None] * n
    children = _csr_lists(tree.children)
    for t in range(n):
        parts_idx = [own_cells[t]]
        parts_val = [flat_g[own_cells[t]]]
        for s in children[t]:
            parts_idx.append(b_cells[s])
            parts_val.append(np.full(len(b_cells[s]), m[s] * phi[s]))
        if tree.parent[t] >= 0:
            parts_idx.append(b_cells[t])
            parts_val.append(np.full(len(b_cells[t]), -m[t] * phi[t]))
        idx = np.concatenate(parts_idx)
        val = np.concatenate(parts_val)
        # merge duplicate cells (a cell can carry own value plus transfers)
        uniq, inv = np.unique(idx, return_inverse=True)
        acc = np.zeros(len(uniq))
        np.add.at(acc, inv, val)
        cells[t] = uniq
        values[t] = acc
    return Decomposition(
        tree=tree,
        grid=g,
        assignment=assignment,
        cells=cells,
        values=values,
        m=m,
        b_cells=b_cells,
        uncovered_count=uncovered,
    )


def decomposition_ratio(dec: Decomposition, q: float, beta: float) -> float:
    """(sum_t ||g_t||_q^q weighted d^(-beta q))^(1/q) over ||g||, same weight."""
    power = -beta * q
    grid = dec.grid
    h2 = grid.h * grid.h
    dist = grid.dist.ravel()
    num = 0.0
    for idx, val in zip(dec.cells, dec.values):
        if len(idx) == 0:
            continue
        num += float((np.abs(val) ** q * dist[idx] ** power).sum()) * h2
    covered = dec.assignment >= 0
    gv = np.where(covered, grid.values, 0.0)
    den = float((np.abs(gv.ravel()) ** q * dist**power)[covered.ravel()].sum()) * h2
    if den == 0.0:
        raise ParameterError("zero denominator in decomposition ratio")
    return (num ** (1.0 / q)) / (den ** (1.0 / q))


# ---------------------------------------------------------------------------
# dump


def dump_decomposition(dec: Decomposition, path) -> None:
    """Single binary container: JSON index line then per-node id/value blocks."""
    index = []
    offset = 0
    blobs = []
    for t, (idx, val) in enumerate(zip(dec.cells, dec.values)):
        blob = idx.astype("<i8").tobytes() + val.astype("<f8").tobytes()
        index.append({"node": t, "offset": offset, "count": int(len(idx))})
        offset += len(blob)
        blobs.append(blob)
    header = json.dumps({"h": dec.grid.h, "dims": list(dec.grid.dims), "index": index},
                        sort_keys=True)
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for blob in blobs:
            fh.write(blob)
