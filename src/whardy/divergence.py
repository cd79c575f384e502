"""Right inverse of the divergence via the decomposition strategy.

The data f is split into the mean-zero pieces f_t of the tree covering;
each piece gets a minimal-Dirichlet-energy MAC solution of div u_t = f_t on
its own cell patch with zero boundary faces, and the global field is the
face-wise sum. Local problems are equality-constrained quadratic programs
solved through the sparse KKT saddle system with one pressure multiplier
pinned per patch, factored once per patch shape; the divergence
constraint is verified cellwise after every solve.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .decomp import c_decompose, check_q_beta
from .errors import CompatibilityError, ConvergenceError
from .fields import GridFunction, gradient_norm, weighted_lp_norm
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


def patch_key(cells: np.ndarray, ny: int) -> bytes:
    """Shape key of a patch: its (i - i_min, j - j_min) pairs in input cell order.

    Faces and unknowns are numbered in input cell order, so patches with
    equal keys share one local system, whatever their position, ``ny`` or
    ``h`` (which only scales the right-hand side).
    """
    ii, jj = np.divmod(np.asarray(cells, dtype=np.int64), ny)
    if len(ii) == 0:
        return b""
    return np.stack([ii - ii.min(), jj - jj.min()], axis=1).tobytes()


class _PatchSystem(NamedTuple):
    """The shape-dependent part of a local solve."""

    has_fx: np.ndarray  # cells whose low x-face is interior to the patch
    has_fy: np.ndarray
    nfx: int
    A: sp.csr_matrix | None  # face Laplacian of the energy; None without faces
    B: sp.csr_matrix | None  # cellwise divergence, rows in input cell order
    lu: spla.SuperLU | None  # factor of the pinned KKT matrix


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
        return _PatchSystem(has_fx, has_fy, 0, None, None, None)

    # unknown number of the x- (y-) face keyed by each cell, -1 for none;
    # the trailing -1 is what a missing cell (index -1) reads
    fx_id = np.full(nc + 1, -1)
    fx_id[:nc][has_fx] = np.arange(nfx)
    fy_id = np.full(nc + 1, -1)
    fy_id[:nc][has_fy] = np.arange(nfx, nf)

    # A = 4I - adjacency on each face lattice: row a holds face a itself,
    # then its +x, -x, +y, -y neighbours of the same component
    lap = np.concatenate([fx_id[nb[has_fx]], fy_id[nb[has_fy]]])
    a_row, k = np.nonzero(lap >= 0)
    a_col = lap[a_row, k]
    a_val = np.array([4.0, -1.0, -1.0, -1.0, -1.0])[k]
    A = sp.coo_matrix((a_val, (a_row, a_col)), shape=(nf, nf)).tocsr()

    # constraint: high faces minus low faces of each cell = h * f
    div = np.stack([fx_id[nb[:, 1]], fx_id[:nc], fy_id[nb[:, 3]], fy_id[:nc]], axis=1)
    b_row, k = np.nonzero(div >= 0)
    b_col = div[b_row, k]
    b_val = np.array([1.0, -1.0, 1.0, -1.0])[k]
    B = sp.coo_matrix((b_val, (b_row, b_col)), shape=(nc, nf)).tocsr()

    # KKT [[A, B1^T], [B1, 0]], where B1 is B without its first row: the
    # first cell's multiplier is pinned (B has a constant null space per
    # connected patch; compatibility holds by the mean-zero check)
    keep = b_row > 0
    m_row, m_col, m_val = b_row[keep] + (nf - 1), b_col[keep], b_val[keep]
    K = sp.coo_matrix(
        (np.concatenate([a_val, m_val, m_val]),
         (np.concatenate([a_row, m_row, m_col]), np.concatenate([a_col, m_col, m_row]))),
        shape=(nf + nc - 1, nf + nc - 1),
    ).tocsc()
    try:
        lu = spla.splu(K)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise ConvergenceError(f"local KKT system of node {node} is singular: {exc}") from exc
    return _PatchSystem(has_fx, has_fy, nfx, A, B, lu)


def local_div_solve(cells: np.ndarray, f_vals: np.ndarray, ny: int, h: float,
                    node: int = -1, system: _PatchSystem | None = None) -> LocalSolve:
    """Minimal gradient-energy staggered velocity with div u = f on the patch.

    ``cells`` are flat ids (i * ny + j) of the patch; ``f_vals`` the target
    divergence per cell. Velocities on faces not interior to the patch are
    zero. Requires the discrete integral of f to vanish.

    ``system`` is the factored local system of a patch with this patch's
    ``patch_key``; without it the call factors afresh. The floats are the
    same either way.
    """
    cells = np.asarray(cells, dtype=np.int64)
    f_vals = np.asarray(f_vals, dtype=float)
    total = float(f_vals.sum()) * h * h
    l1 = float(np.abs(f_vals).sum()) * h * h
    if l1 > 0 and abs(total) > 1e-10 * l1:
        raise CompatibilityError(f"nonzero mean on node {node}: {total:.3e}")
    ii, jj = np.divmod(cells, ny)
    ij = np.stack([ii, jj], axis=1)
    if system is None:
        system = _patch_system(ii, jj, ny, node)
    has_fx, has_fy, nfx, A, B, lu = system
    if lu is None:
        if l1 > 0:
            raise CompatibilityError(f"patch of node {node} has no interior face")
        return LocalSolve(node, cells, ij[has_fx], np.zeros(0), ij[has_fy], np.zeros(0),
                          0.0, 0.0)

    nf = A.shape[0]
    rhs_c = h * f_vals
    u = lu.solve(np.concatenate([np.zeros(nf), rhs_c[1:]]))[:nf]

    scale = float(np.linalg.norm(rhs_c)) or 1.0
    residual = float(np.linalg.norm(B @ u - rhs_c)) / scale
    if not residual <= SOLVER_TOL:
        raise ConvergenceError(
            f"local solve on node {node} stalled at residual {residual:.2e}",
            residual=residual,
        )
    Au = A @ u
    energy = float(u[:nfx] @ Au[:nfx] + u[nfx:] @ Au[nfx:])
    return LocalSolve(node, cells, ij[has_fx], u[:nfx], ij[has_fy], u[nfx:], energy,
                      residual)


def solve_divergence(tree: TreeCovering, f: GridFunction, q: float, beta: float):
    """Assemble u = sum of local solutions; report the weighted a-priori ratio.

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
    # nodes are visited grouped by patch shape (a stable sort, so node order
    # within a group), so each shape is factored once and only one factor
    # is alive at a time.
    keys = [patch_key(dec.piece(t)[0], ny) for t in range(len(tree))]
    order = sorted(range(len(tree)), key=keys.__getitem__)
    groups = [list(g) for _, g in itertools.groupby(order, key=keys.__getitem__)]
    del keys  # 16 bytes per patch cell, unused while solving
    solves: list = [None] * len(tree)
    for group in groups:
        system = _patch_system(*np.divmod(dec.piece(group[0])[0], ny), ny, group[0])
        for t in group:
            solves[t] = local_div_solve(*dec.piece(t), ny, f.h, node=t, system=system)
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
    div = mac.divergence()
    fnorm = float(np.linalg.norm(np.where(covered, f.values, 0.0)))
    resid = float(np.linalg.norm(np.where(covered, div - f.values, 0.0)))
    rel_resid = resid / fnorm if fnorm > 0 else resid

    vec = mac.cell_centered()
    lhs, rhs = _apriori_norms(vec, f, q, beta)
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
    report.solves = solves
    report.mac = mac
    report.decomposition = dec
    return vec, report


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
