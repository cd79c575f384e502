"""Right inverse of the divergence via the decomposition strategy.

The data f is split into the mean-zero pieces f_t of the tree covering;
each piece gets a minimal-Dirichlet-energy MAC solution of div u_t = f_t on
its own cell patch with zero boundary faces, and the global field is the
face-wise sum. Local problems are equality-constrained quadratic programs
solved through the sparse KKT saddle system with one pressure multiplier
pinned per patch. Each patch shape is assembled and factored once, and
all its patches are solved in one call; the divergence constraint is
verified cellwise after every solve.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import geometry
from .decomp import c_decompose, check_q_beta
from .errors import CompatibilityError, ConvergenceError, StructureError
from .fields import GridFunction, _exact_sum, gradient_norm, weighted_lp_norm
from .inequalities import InequalityReport
from .treecover import TreeCovering

if TYPE_CHECKING:
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

SOLVER_TOL = 1e-10


@dataclass
class LocalSolve:
    node: int
    cells: np.ndarray  # flat cell ids of the patch
    fx_ij: np.ndarray  # (m, 2) x-faces (i, j): between cells (i-1, j) and (i, j)
    fx: np.ndarray  # velocity on each x-face
    fy_ij: np.ndarray  # (m, 2) y-faces (i, j): between cells (i, j-1) and (i, j)
    fy: np.ndarray
    energy: float
    residual: float


@dataclass
class MacField:
    """Face-centered velocity on the full grid."""

    grid: GridFunction
    fx: np.ndarray  # (nx+1, ny)
    fy: np.ndarray  # (nx, ny+1)

    def divergence(self) -> np.ndarray:
        h = self.grid.h
        return (
            self.fx[1:, :] - self.fx[:-1, :] + self.fy[:, 1:] - self.fy[:, :-1]
        ) / h

    def cell_centered(self) -> tuple[GridFunction, GridFunction]:
        u = 0.5 * (self.fx[1:, :] + self.fx[:-1, :])
        v = 0.5 * (self.fy[:, 1:] + self.fy[:, :-1])
        return self.grid.with_values(u), self.grid.with_values(v)


def _cell_offsets(cells: np.ndarray, ptr: np.ndarray, ny: int) -> np.ndarray:
    """(i - i_min, j - j_min) of every cell, the minima taken over its patch
    ``cells[ptr[t]:ptr[t + 1]]``: an (N, 2) array in input cell order."""
    ii, jj = np.divmod(cells, ny)
    size = np.diff(ptr)
    full = size > 0
    lo_i = np.repeat(np.minimum.reduceat(ii, ptr[:-1][full]), size[full])
    lo_j = np.repeat(np.minimum.reduceat(jj, ptr[:-1][full]), size[full])
    return np.stack([ii - lo_i, jj - lo_j], axis=1)


def patch_keys(cells: np.ndarray, ptr: np.ndarray, ny: int) -> list[bytes]:
    """Shape key of each patch ``cells[ptr[t]:ptr[t + 1]]``: its
    (i - i_min, j - j_min) pairs in input cell order.

    Faces and unknowns are numbered in input cell order, so patches with
    equal keys share one local system, whatever their position, ``ny`` or
    ``h`` (which only scales the right-hand side).
    """
    ptr = np.asarray(ptr)
    off = _cell_offsets(np.asarray(cells, dtype=np.int64), ptr, ny)
    bounds = ptr.tolist()
    return [off[a:b].tobytes() for a, b in zip(bounds[:-1], bounds[1:])]


class _PatchSystem(NamedTuple):
    """The shape-dependent part of a local solve."""

    has_fx: np.ndarray  # cells whose low x-face is interior to the patch
    has_fy: np.ndarray
    nfx: int
    # rows of the face Laplacian A of the energy, then of the cellwise
    # divergence B in input cell order; None without faces
    AB: sp.csr_matrix | None
    lu: spla.SuperLU | None  # factor of the pinned KKT matrix


def _compressed(cols: np.ndarray, vals: np.ndarray):
    """(data, indices, indptr) of the rows ``cols`` (-1 for no entry) with
    values ``vals``, each row's columns ascending: the canonical form a COO
    conversion gives, so products and factors see the same matrix. The
    index arrays are int32, which scipy takes without a scan."""
    row, k = np.nonzero(cols >= 0)
    col = cols[row, k]
    order = np.argsort(row * (int(col.max()) + 1) + col)
    indptr = np.searchsorted(row, np.arange(len(cols) + 1))
    return vals[row, k][order], col[order].astype(np.int32), indptr.astype(np.int32)


def _patch_system(ii: np.ndarray, jj: np.ndarray, ny: int, node: int) -> _PatchSystem:
    # scipy loads on the first factorization, off every other command's startup
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    nc = len(ii)
    # Face (i, j) sits on the low side of cell (i, j) and shares its key
    # i * (ny + 1) + j. The spare column j = ny keeps the lattice steps
    # +-(ny + 1) and +-1 from wrapping across grid rows.
    keys = ii * (ny + 1) + jj
    srt = np.argsort(keys)
    # the sentinel above every key keeps each searchsorted index in range
    lattice = np.append(keys[srt], np.iinfo(np.int64).max)
    steps = keys[:, None] + np.array([0, ny + 1, -(ny + 1), 1, -1])
    at = np.searchsorted(lattice, steps)
    # patch cell at each step (itself, +x, -x, +y, -y) from each cell, or -1
    nb = np.where(lattice[at] == steps, np.append(srt, -1)[at], -1)

    # interior faces in input cell order: x-face (i, j) where cell (i-1, j)
    # is in the patch too, y-face (i, j) where cell (i, j-1) is
    has_fx, has_fy = nb[:, 2] >= 0, nb[:, 4] >= 0
    nfx = int(has_fx.sum())
    nf = nfx + int(has_fy.sum())
    if nf == 0:
        return _PatchSystem(has_fx, has_fy, 0, None, None)

    # unknown number of the x- (y-) face keyed by each cell, -1 for none;
    # the trailing -1 is what a missing cell (index -1) reads
    fx_id = np.full(nc + 1, -1)
    fx_id[:nc][has_fx] = np.arange(nfx)
    fy_id = np.full(nc + 1, -1)
    fy_id[:nc][has_fy] = np.arange(nfx, nf)

    # Row a < nf: A = 4I - adjacency on each face lattice, face a itself,
    # then its +x, -x, +y, -y neighbours of the same component. Row nf + c:
    # the constraint of cell c, its high faces minus its low faces = h * f.
    cols = np.full((nf + nc, 7), -1)
    cols[:nf, :5] = np.concatenate([fx_id[nb[has_fx]], fy_id[nb[has_fy]]])
    cols[nf:, :4] = np.stack([fx_id[nb[:, 1]], fx_id[:nc], fy_id[nb[:, 3]], fy_id[:nc]],
                             axis=1)
    vals = np.zeros((nf + nc, 7))
    vals[:nf] = [4.0, -1.0, -1.0, -1.0, -1.0, -1.0, 1.0]
    vals[nf:, :4] = [1.0, -1.0, 1.0, -1.0]
    AB = sp.csr_matrix(_compressed(cols, vals), shape=(nf + nc, nf))

    # KKT [[A, B1^T], [B1, 0]], where B1 is B without its first row: the
    # first cell's multiplier is pinned (B has a constant null space per
    # connected patch; compatibility holds by the mean-zero check). Cell
    # c >= 1 is unknown nf + c - 1, and face a's column of B joins the cell
    # keying it (-1) to that cell's -x (-y) neighbour (+1). K is symmetric,
    # so its canonical rows are its canonical columns.
    cols[:nfx, 5:] = np.stack([np.flatnonzero(has_fx), nb[has_fx, 2]], axis=1)
    cols[nfx:nf, 5:] = np.stack([np.flatnonzero(has_fy), nb[has_fy, 4]], axis=1)
    cols[:nf, 5:] = np.where(cols[:nf, 5:] > 0, cols[:nf, 5:] + (nf - 1), -1)
    rows = np.r_[:nf, nf + 1:nf + nc]
    K = sp.csc_matrix(_compressed(cols[rows], vals[rows]), shape=(nf + nc - 1, nf + nc - 1))
    try:
        lu = spla.splu(K)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise ConvergenceError(f"local KKT system of node {node} is singular: {exc}") from exc
    return _PatchSystem(has_fx, has_fy, nfx, AB, lu)


def local_div_solve(cells: np.ndarray, f_vals: np.ndarray, ny: int, h: float,
                    nodes, system: _PatchSystem | None = None) -> list[LocalSolve]:
    """Minimal gradient-energy staggered velocities with div u = f on a block
    of patches of one shape.

    Row r of ``cells`` holds the flat ids (i * ny + j) of node ``nodes[r]``'s
    patch, row r of ``f_vals`` the target divergence per cell; one patch is
    a block of one row. Every row must have the first row's ``patch_keys``
    key. Velocities on faces not interior to a patch are zero. Requires the
    discrete integral of each row of f to vanish. Each row's floats are
    those of solving it alone.

    ``system`` is the factored local system of a patch with this key;
    without it the call factors afresh. The floats are the same either way.
    """
    cells = np.asarray(cells, dtype=np.int64)
    f_vals = np.asarray(f_vals, dtype=float)
    nodes = np.asarray(nodes).tolist()
    k, m = cells.shape
    off = _cell_offsets(cells.ravel(), m * np.arange(k + 1), ny).reshape(k, m, 2)
    other = (off != off[:1]).any(axis=(1, 2))
    if other.any():
        raise StructureError(f"patch of node {nodes[int(np.argmax(other))]} does not "
                             f"have the shape of node {nodes[0]}'s")
    total = f_vals.sum(axis=1) * h * h
    l1 = np.abs(f_vals).sum(axis=1) * h * h
    bad = (l1 > 0) & (np.abs(total) > 1e-10 * l1)
    if bad.any():
        r = int(np.argmax(bad))
        raise CompatibilityError(f"nonzero mean on node {nodes[r]}: {total[r]:.3e}")
    ij = np.stack(np.divmod(cells, ny), axis=-1)
    if system is None:
        system = _patch_system(*np.divmod(cells[0], ny), ny, nodes[0])
    has_fx, has_fy, nfx, AB, lu = system
    nf = 0 if AB is None else AB.shape[1]
    u = np.zeros((k, nf))
    energy = np.zeros(k)
    residual = np.zeros(k)
    if lu is None and (l1 > 0).any():
        raise CompatibilityError(
            f"patch of node {nodes[int(np.argmax(l1 > 0))]} has no interior face")

    if lu is not None:
        rhs_c = h * f_vals
        # One lu.solve per row: SuperLU takes another BLAS path for several
        # right-hand sides (dtrsm/dgemm for dtrsv/dgemv), whose floats differ
        # on large supernodes. lu.solve copies its input, so one buffer serves.
        rhs = np.zeros(nf + m - 1)
        for r in range(k):
            rhs[nf:] = rhs_c[r, 1:]
            u[r] = lu.solve(rhs)[:nf]
        scale = np.linalg.norm(rhs_c, axis=1)
        scale[scale == 0] = 1.0
        # The products run max(1, BLOCK // rows) rows at a time; each row's
        # reductions run along contiguous rows, the energy as two ddots, so
        # no float depends on the block's width.
        width = max(1, geometry.BLOCK // (nf + m))
        for s in range(0, k, width):
            blk = slice(s, s + width)
            ab = (AB @ u[blk].T).T.copy()  # (A u | B u) of each row
            energy[blk] = [v[:nfx] @ a[:nfx] + v[nfx:] @ a[nfx:nf]
                           for v, a in zip(u[blk], ab)]
            residual[blk] = np.linalg.norm(ab[:, nf:] - rhs_c[blk], axis=1) / scale[blk]
        stalled = ~(residual <= SOLVER_TOL)
        if stalled.any():
            r = int(np.argmax(stalled))
            raise ConvergenceError(
                f"local solve on node {nodes[r]} stalled at residual {residual[r]:.2e}",
                residual=float(residual[r]),
            )
    fx_ij, fy_ij = ij[:, has_fx], ij[:, has_fy]
    return [LocalSolve(nodes[r], cells[r], fx_ij[r], u[r, :nfx], fy_ij[r], u[r, nfx:],
                       float(energy[r]), float(residual[r])) for r in range(k)]


def solve_divergence(tree: TreeCovering, f: GridFunction, q: float,
                     beta: float) -> tuple[MacField, list[LocalSolve], InequalityReport]:
    """Assemble u = sum of local solutions; report the weighted a-priori ratio.

    Returns the assembled field, the local solves in node order and the report.

    f must live on ``decomposition_grid(tree)`` and have zero mean over the
    covered cells. The energy minimized locally is the 2-energy regardless
    of q; the reported norms use the requested q (surrogate documented in
    the report).
    """
    check_q_beta(q, beta)
    dec = c_decompose(tree, f)

    nx, ny = f.dims
    # supp(g_t) is the local patch: the cube's cells, its own transfer box
    # and its children's, which all connect through the shared faces. The
    # nodes are grouped by patch shape (a stable sort, so node order within
    # a group); each shape is factored once and solved as one block, and
    # only one factor is alive at a time.
    keys = patch_keys(dec.cells, dec.ptr, ny)
    order = sorted(range(len(tree)), key=keys.__getitem__)
    groups = [np.array(list(g)) for _, g in itertools.groupby(order, key=keys.__getitem__)]
    del keys  # 16 bytes per patch cell, unused while solving
    solves: list = [None] * len(tree)
    for nodes in groups:
        at = dec.ptr[nodes, None] + np.arange(dec.ptr[nodes[0] + 1] - dec.ptr[nodes[0]])
        cells = dec.cells[at]
        system = _patch_system(*np.divmod(cells[0], ny), ny, nodes[0])
        for loc in local_div_solve(cells, dec.values[at], ny, f.h, nodes, system=system):
            solves[loc.node] = loc
        del system  # before the next shape is factored, and before the norms below
    # summed in node order, so every float is independent of the visit order
    FX = np.zeros((nx + 1, ny))
    FY = np.zeros((nx, ny + 1))
    for loc in solves:
        FX[loc.fx_ij[:, 0], loc.fx_ij[:, 1]] += loc.fx
        FY[loc.fy_ij[:, 0], loc.fy_ij[:, 1]] += loc.fy
    energies = [loc.energy for loc in solves]

    mac = MacField(grid=f, fx=FX, fy=FY)
    covered = f.covered
    # correctly rounded sums of squares, so no float depends on how BLAS
    # splits a reduction across threads
    fnorm = math.sqrt(_exact_sum(f.values[covered] ** 2))
    resid = math.sqrt(_exact_sum((mac.divergence() - f.values)[covered] ** 2))
    rel_resid = resid / fnorm if fnorm > 0 else resid

    lhs, rhs = _apriori_norms(mac.cell_centered(), f, q, beta)
    degenerate = "zero data" if rhs == 0.0 else None
    report = InequalityReport(
        inequality="divergence",
        domain=tree.decomposition.domain.name,
        params={"q": q, "beta": beta, "max_level": tree.decomposition.max_level,
                "energy_norm": "q=2 surrogate"},
        lhs=lhs,
        rhs=rhs,
        ratio=lhs / rhs if rhs > 0 else math.nan,
        h=f.h,
        degenerate=degenerate,
        extra={
            "div_residual_rel": rel_resid,
            "local_energies_sum": float(np.sum(energies)),
            "uncovered_cells": dec.uncovered_count,
            "nodes": len(tree),
        },
    )
    if not rel_resid <= 1e-8:
        raise ConvergenceError(
            f"global divergence residual {rel_resid:.2e} exceeds 1e-8",
            residual=rel_resid,
        )
    return mac, solves, report


def _apriori_norms(vec: tuple[GridFunction, GridFunction], f: GridFunction,
                   q: float, beta: float) -> tuple[float, float]:
    """(||grad u||, ||f||) in L^q with weight d^(-beta q), over the covered cells.

    The local solves do not depend on beta (2-energy minimizers), so one
    assembled velocity serves every weight exponent.
    """
    power = -beta * q
    cov = f.covered & f.mask
    du = gradient_norm(*(replace(c, values=np.where(cov, c.values, 0.0), mask=cov) for c in vec))
    rhs_f = f.with_values(np.where(f.covered, np.abs(f.values), 0.0))
    return weighted_lp_norm(du, q, power), weighted_lp_norm(rhs_f, q, power)
