"""Right inverse of the divergence via the decomposition strategy.

The data f is split into the mean-zero pieces f_t of the tree covering;
each piece gets a minimal-Dirichlet-energy MAC solution of div u_t = f_t on
its own cell patch with zero boundary faces, and the global field is the
face-wise sum. Local problems are equality-constrained quadratic programs
solved through the sparse KKT saddle system with one pressure multiplier
pinned per patch. The systems of all patch shapes are assembled in one
vectorized pass, each is factored once, and all patches of a shape are
solved in one call; the divergence constraint is verified cellwise after
every solve.
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
from .geometry import _block_runs, index_ranges
from .inequalities import InequalityReport
from .treecover import TreeCovering

if TYPE_CHECKING:
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

SOLVER_TOL = 1e-10


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

    offsets: np.ndarray  # (i - i_min, j - j_min) of each cell: the shape
    has_fx: np.ndarray  # cells whose low x-face is interior to the patch
    has_fy: np.ndarray
    nfx: int
    # rows of the face Laplacian A of the energy, then of the cellwise
    # divergence B in input cell order; None without faces
    AB: sp.csr_matrix | None
    lu: spla.SuperLU | None  # factor of the pinned KKT matrix


class _Compressed(NamedTuple):
    """Row-compressed arrays of several patches' matrices, one after another:
    patch s has the entries ``entry[s]:entry[s + 1]`` and the indptr
    ``indptr[at[s]:at[s + 1]]``, counted from its own first entry."""

    data: np.ndarray
    indices: np.ndarray  # int32, like indptr: scipy takes them without a scan
    indptr: np.ndarray
    entry: list
    at: list

    def matrix(self, s: int) -> tuple:
        a, b = self.entry[s], self.entry[s + 1]
        return self.data[a:b], self.indices[a:b], self.indptr[self.at[s]:self.at[s + 1]]


def _compress(table: np.ndarray, keep: np.ndarray, patch: np.ndarray,
              count: int) -> _Compressed:
    """The entries of a table of entry keys (see ``_assemble``) where
    ``keep`` holds, row by row, for each of ``count`` patches; ``patch``
    (non-decreasing) is each row's patch. Each row's keys ascend, so each
    patch gets the canonical form a COO conversion gives, and products and
    factors see the same matrix."""
    flat = np.flatnonzero(keep)
    key = table.ravel()[flat]
    per_row = np.bincount(flat // table.shape[1], minlength=len(table))
    rows = np.bincount(patch, minlength=count)
    total = np.cumsum(np.append(0, per_row))
    first = total[np.cumsum(rows) - rows]  # entries before each patch
    indptr = np.zeros(len(per_row) + count, dtype=np.int32)
    indptr[np.arange(len(per_row)) + patch + 1] = total[1:] - first[patch]
    return _Compressed((key & 7) - 1.0, (key >> 3).astype(np.int32), indptr,
                       [*first.tolist(), int(total[-1])],
                       np.cumsum(np.append(0, rows + 1)).tolist())


def _assemble(cells: np.ndarray, ptr: np.ndarray, ny: int) -> tuple:
    """The local matrices of every patch ``cells[ptr[s]:ptr[s + 1]]``, in one
    vectorized pass over all of them.

    Returns ``(off, has_fx, has_fy, nfx, nf, AB, KKT)``: each cell's
    offsets (see ``_cell_offsets``), whether its low x- (y-) face is
    interior to its patch, each patch's x-face and face
    counts as lists, and the compressed rows of each patch's
    Laplacian-over-divergence matrix and of its pinned KKT matrix. A
    patch's faces and unknowns are numbered in its input cell order, so its
    matrices depend on its ``patch_keys`` key alone.
    """
    n, size = len(cells), np.diff(ptr)
    count = len(size)
    patch = np.repeat(np.arange(count), size)
    local = np.arange(n) - ptr[:-1][patch]  # each cell's place in its patch
    off = _cell_offsets(cells, ptr, ny)
    # Patch s gets the places base[s]:base[s + 1] of one lattice, (wi + 2) wj
    # of them for its wi rows of offsets a and wj - 1 columns of offsets b.
    # Cell (a, b) is at base[s] + (a + 1) wj + b, and face (i, j), on the
    # low side of cell (i, j), shares its cell's place. The spare first and
    # last rows and last column keep the steps +-wj and +-1 in the patch.
    full = size > 0
    wi, wj = np.zeros((2, count), dtype=np.int64)
    wi[full], wj[full] = np.maximum.reduceat(off, ptr[:-1][full]).T + [[1], [2]]
    places = (wi + 2) * wj
    base = np.cumsum(places) - places
    place = (base + wj)[patch] + off[:, 0] * wj[patch] + off[:, 1]
    lattice = np.full(int(places.sum()), -1)
    lattice[place] = np.arange(n)
    # patch cell at each step (itself, +x, -x, +y, -y) from each cell, or -1
    nb = lattice[place[:, None] + wj[patch, None] * [0, 1, -1, 0, 0] + [0, 0, 0, 1, -1]]

    # interior faces in input cell order: x-face (i, j) where cell (i-1, j)
    # is in the patch too, y-face (i, j) where cell (i, j-1) is
    has_fx, has_fy = nb[:, 2] >= 0, nb[:, 4] >= 0
    xf, yf = np.flatnonzero(has_fx), np.flatnonzero(has_fy)
    nfx = np.bincount(patch[xf], minlength=count)
    nfy = np.bincount(patch[yf], minlength=count)
    nf = nfx + nfy
    # unknown of the x- (y-) face keyed by each cell, numbered in its patch
    # x-faces first, -1 for none; the trailing -1 is what a missing cell
    # (index -1) reads
    fx_id = np.full(n + 1, -1)
    fx_id[xf] = np.arange(len(xf)) - (np.cumsum(nfx) - nfx)[patch[xf]]
    fy_id = np.full(n + 1, -1)
    fy_id[yf] = np.arange(len(yf)) - (np.cumsum(nfy) - nfy - nfx)[patch[yf]]

    # Patch s has nf[s] + size[s] rows from row[s]: face a's row is a, cell
    # c's is nf[s] + c. Row a: A = 4I - adjacency on each face lattice. Row
    # nf + c: the constraint of cell c, its high faces minus its low faces =
    # h * f. In the KKT matrix [[A, B1^T], [B1, 0]], B1 is B without its
    # first row: the first cell's multiplier is pinned (B has a constant
    # null space per connected patch; compatibility holds by the mean-zero
    # check). Cell c >= 1 is unknown nf + c - 1, and face a's column of B
    # joins the cell keying it (-1) to that cell's -x (-y) neighbour (+1).
    # K is symmetric, so its canonical rows are its canonical columns.
    rows = nf + size
    row = np.cumsum(rows) - rows
    pinned = np.where(local > 0, nf[patch] + local - 1, -1)
    # An entry's key is (column << 3) | (value + 1), so sorting a row's keys
    # sorts its columns and carries the values; no entry is ``last``, past
    # every key. A face row holds the face itself (4) and its +x, -x, +y
    # and -y neighbours of the same component (-1) in A, then the cell
    # keying it (-1) and that cell's -x (-y) neighbour (+1) in B^T; a cell
    # row its +x (+1), own x (-1), +y (+1) and own y (-1) faces in B.
    last = np.iinfo(np.int64).max
    faces = np.concatenate([xf, yf])  # the cell keying each face, x-faces first
    nface = len(faces)
    table = np.full((nface + n, 7), -1)
    table[:nface, :5] = np.concatenate([fx_id[nb[xf]], fy_id[nb[yf]]])
    table[:nface, 5] = pinned[faces]
    table[:nface, 6] = pinned[np.concatenate([nb[xf, 2], nb[yf, 4]])]
    table[nface:, :4] = np.stack([fx_id[nb[:, 1]], fx_id[:n], fy_id[nb[:, 3]], fy_id[:n]],
                                 axis=1)
    none = table < 0
    table <<= 3
    table[:nface] |= [5, 0, 0, 0, 0, 0, 2]
    table[nface:] |= [2, 0, 2, 0, 0, 0, 0]
    table[none] = last
    table.sort(axis=1)
    # the rows in matrix order, patch after patch
    at = np.empty(len(table), dtype=np.int64)
    at[np.concatenate([row[patch[faces]] + np.concatenate([fx_id[xf], fy_id[yf]]),
                       (row + nf)[patch] + local])] = np.arange(len(table))
    table = table[at]

    row_patch = np.repeat(np.arange(count), rows)
    # AB holds the entries in face columns: all of A and B, none of B^T
    AB = _compress(table, table < (nf << 3)[row_patch, None], row_patch, count)
    kept = np.ones(len(table), dtype=bool)
    kept[(row + nf)[full]] = False  # the first cell's row is pinned
    table = table[kept]
    KKT = _compress(table, table < last, row_patch[kept], count)
    return off, has_fx, has_fy, nfx.tolist(), nf.tolist(), AB, KKT


def _patch_systems(cells: np.ndarray, ptr, ny: int, nodes):
    """Yield the factored local system of each patch ``cells[ptr[s]:ptr[s +
    1]]`` in turn; ``nodes[s]`` names it in errors.

    One ``_assemble`` pass builds a run of patches whose tables (at most 3
    rows of 7 entries per cell) hold at most BLOCK // 8 entries, unless one
    patch alone has more: the pass keeps about 8 table-sized temporaries. A
    patch is factored only when its system is asked for, so one factor is
    alive at a time if the caller drops each system first.
    """
    # scipy loads on the first factorization, off every other command's startup
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    ptr = np.asarray(ptr)
    for start, stop in _block_runs(8 * 21 * np.diff(ptr), geometry.BLOCK):
        run = ptr[start:stop + 1] - ptr[start]
        off, has_fx, has_fy, nfx, nf, AB, KKT = _assemble(cells[ptr[start]:ptr[stop]], run, ny)
        for s, (a, b) in enumerate(itertools.pairwise(run.tolist())):
            if nf[s] == 0:
                yield _PatchSystem(off[a:b], has_fx[a:b], has_fy[a:b], 0, None, None)
                continue
            rows = nf[s] + b - a
            K = sp.csc_matrix(KKT.matrix(s), shape=(rows - 1, rows - 1))
            try:
                lu = spla.splu(K)
            except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
                raise ConvergenceError(
                    f"local KKT system of node {nodes[start + s]} is singular: {exc}") from exc
            yield _PatchSystem(off[a:b], has_fx[a:b], has_fy[a:b], nfx[s],
                               sp.csr_matrix(AB.matrix(s), shape=(rows, nf[s])), lu)
            del lu  # before the next patch is factored


def _check_mean_zero(f_vals: np.ndarray, ptr, h: float) -> None:
    """Raise ``CompatibilityError`` naming the first patch t whose data
    ``f_vals[ptr[t]:ptr[t + 1]]`` has a nonzero integral."""
    size = np.diff(ptr)
    patch = np.repeat(np.arange(len(size)), size)
    total = np.bincount(patch, f_vals, len(size)) * h * h
    l1 = np.bincount(patch, np.abs(f_vals), len(size)) * h * h
    bad = (l1 > 0) & (np.abs(total) > 1e-10 * l1)
    if bad.any():
        t = int(np.argmax(bad))
        raise CompatibilityError(f"nonzero mean on node {t}: {total[t]:.3e}")


def local_div_solve(cells: np.ndarray, f_vals: np.ndarray, ny: int, h: float, nodes,
                    system: _PatchSystem) -> tuple[np.ndarray, np.ndarray]:
    """Minimal gradient-energy staggered velocities with div u = f on a block
    of patches of one shape.

    Row r of ``cells`` holds the flat ids (i * ny + j) of node ``nodes[r]``'s
    patch, row r of ``f_vals`` the target divergence per cell, whose discrete
    integral must vanish: a row that is not mean-zero fails the residual
    check. ``system`` is the factored system of a patch of this shape, from
    ``_patch_systems``; a row of another shape raises ``StructureError``.

    Returns ``(u, energy)``: row r of ``u`` holds the velocities on the
    x-faces of the cells ``system.has_fx`` selects, then on the y-faces of
    those ``system.has_fy`` selects, in input cell order; face (i, j) is the
    low face of cell (i, j). Each row's floats are those of solving it alone.
    """
    cells = np.asarray(cells, dtype=np.int64)
    f_vals = np.asarray(f_vals, dtype=float)
    k, m = cells.shape
    ij = np.stack(np.divmod(cells, ny), axis=-1)
    # equal keys are translates: equal offsets from each row's first cell
    ref = system.offsets - system.offsets[:1]
    other = ((ij - ij[:, :1]) != ref).any(axis=(1, 2)) if len(ref) == m else np.ones(k, bool)
    if other.any():
        raise StructureError(f"patch of node {nodes[int(np.argmax(other))]} does not "
                             f"have the shape of its system")
    _, _, _, nfx, AB, lu = system
    nf = 0 if AB is None else AB.shape[1]
    u = np.zeros((k, nf))
    energy = np.zeros(k)

    if lu is None:
        nonzero = np.abs(f_vals).sum(axis=1) > 0
        if nonzero.any():
            raise CompatibilityError(
                f"patch of node {nodes[int(np.argmax(nonzero))]} has no interior face")
        return u, energy
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
    residual = np.zeros(k)
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
    return u, energy


def solve_divergence(tree: TreeCovering, f: GridFunction, q: float,
                     beta: float) -> tuple[MacField, InequalityReport]:
    """Assemble u = sum of local solutions; report the weighted a-priori ratio.

    Returns the assembled field and the report.

    f must live on ``decomposition_grid(tree)`` and have zero mean over the
    covered cells. The energy minimized locally is the 2-energy regardless
    of q; the reported norms use the requested q (surrogate documented in
    the report).
    """
    check_q_beta(q, beta)
    dec = c_decompose(tree, f)

    nx, ny = f.dims
    _check_mean_zero(dec.values, dec.ptr, f.h)
    # supp(g_t) is the local patch: the cube's cells, its own transfer box
    # and its children's, which all connect through the shared faces. The
    # nodes are grouped by patch shape (a stable sort, so node order within
    # a group). The first patch of each
    # shape stands for it: they are assembled a run at a time, each by one
    # vectorized pass, and each is factored once and its shape solved as
    # one block, one factor alive at a time.
    keys = patch_keys(dec.cells, dec.ptr, ny)
    order = sorted(range(len(tree)), key=keys.__getitem__)
    groups = [np.array(list(g)) for _, g in itertools.groupby(order, key=keys.__getitem__)]
    del keys  # 16 bytes per patch cell, unused while solving
    first = np.array([nodes[0] for nodes in groups], dtype=np.int64)
    size = np.diff(dec.ptr)[first]
    systems = _patch_systems(dec.cells[index_ranges(dec.ptr[first], size)],
                             np.append(0, np.cumsum(size)), ny, first)
    x_faces = (nx + 1) * ny
    energy = np.zeros(len(tree))
    blocks = []  # (node, flat index in FX then FY, velocity) of each face
    # strict: the exhausted generator drops its last run's arrays too
    for nodes, m, system in zip(groups, size.tolist(), systems, strict=True):
        at = dec.ptr[nodes, None] + np.arange(m)
        cells = dec.cells[at]
        u, energy[nodes] = local_div_solve(cells, dec.values[at], ny, f.h, nodes, system)
        # x-face (i, j) is FX's i ny + j, the id of the cell keying it;
        # y-face (i, j) is FY's i (ny + 1) + j, that cell's id plus i
        yc = cells[:, system.has_fy]
        face = np.concatenate([cells[:, system.has_fx], x_faces + yc + yc // ny], axis=1)
        blocks.append((np.repeat(nodes, face.shape[1]), face.ravel(), u.ravel()))
        del system  # before the next shape is factored, and before the norms below
    # The faces in node order (a stable sort), summed by one bincount, which
    # adds each bin's weights in input order from 0.0: every float is that
    # of summing the nodes' fields in node order, whatever the visit order.
    node, face, u = (np.concatenate(part) for part in zip(*blocks))
    del blocks
    order = np.argsort(node, kind="stable")
    fxy = np.bincount(face[order], u[order], x_faces + nx * (ny + 1))
    del node, face, u, order  # before the norms below
    mac = MacField(grid=f, fx=fxy[:x_faces].reshape(nx + 1, ny),
                   fy=fxy[x_faces:].reshape(nx, ny + 1))
    covered = f.covered
    # correctly rounded sums of squares, so no float depends on how BLAS
    # splits a reduction across threads
    fnorm = math.sqrt(_exact_sum(f.values[covered] ** 2))
    resid = math.sqrt(_exact_sum((mac.divergence() - f.values)[covered] ** 2))
    rel_resid = resid / fnorm if fnorm > 0 else resid

    if not rel_resid <= 1e-8:  # before the report, which rejects a NaN side
        raise ConvergenceError(
            f"global divergence residual {rel_resid:.2e} exceeds 1e-8",
            residual=rel_resid,
        )

    lhs, rhs = _apriori_norms(mac.cell_centered(), f, q, beta)
    params = {"q": q, "beta": beta, "max_level": tree.decomposition.max_level,
              "energy_norm": "q=2 surrogate"}
    return mac, InequalityReport(
        "divergence", f, params, lhs, rhs, degenerate="zero data" if rhs == 0.0 else None,
        extra={"div_residual_rel": rel_resid, "local_energies_sum": float(np.sum(energy)),
               "uncovered_cells": dec.uncovered_count, "nodes": len(tree)})


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
