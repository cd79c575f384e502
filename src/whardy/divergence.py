"""Right inverse of the divergence via the decomposition strategy.

The data f is split into the mean-zero pieces f_t of the tree covering;
each piece gets a minimal-Dirichlet-energy MAC solution of div u_t = f_t on
its own cell patch with zero boundary faces, and the global field is the
face-wise sum. Local problems are equality-constrained quadratic programs
solved through the sparse KKT saddle system with one pressure multiplier
pinned per patch; the divergence constraint is verified cellwise after
every solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .decomp import c_decompose, grid_layout
from .errors import CompatibilityError, ConvergenceError, ParameterError
from .fields import GridFunction, VectorFieldGrid, gradient, weighted_lp_norm
from .inequalities import InequalityReport
from .treecover import TreeCovering

SOLVER_TOL = 1e-10


@dataclass
class LocalSolve:
    node: int
    cells: np.ndarray  # flat cell ids of the patch
    fx: dict  # x-face id -> velocity (face between cell (i-1,j) and (i,j))
    fy: dict
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

    def cell_centered(self) -> VectorFieldGrid:
        u = 0.5 * (self.fx[1:, :] + self.fx[:-1, :])
        v = 0.5 * (self.fy[:, 1:] + self.fy[:, :-1])
        g = self.grid
        return VectorFieldGrid((g.with_values(u), g.with_values(v)))


def local_div_solve(cells: np.ndarray, f_vals: np.ndarray, ny: int,
                    h: float, node: int = -1) -> LocalSolve:
    """Minimal gradient-energy staggered velocity with div u = f on the patch.

    ``cells`` are flat ids (i * ny + j) of the patch; ``f_vals`` the target
    divergence per cell. Velocities on faces not interior to the patch are
    zero. Requires the discrete integral of f to vanish.
    """
    cells = np.asarray(cells, dtype=np.int64)
    f_vals = np.asarray(f_vals, dtype=float)
    total = float(f_vals.sum()) * h * h
    l1 = float(np.abs(f_vals).sum()) * h * h
    if l1 > 0 and abs(total) > 1e-10 * l1:
        raise CompatibilityError(f"nonzero mean on node {node}: {total:.3e}")
    cellset = {int(c): k for k, c in enumerate(cells)}
    nc = len(cells)
    ii = cells // ny
    jj = cells % ny

    # interior faces: x-face (i, j) between cells (i-1, j) and (i, j)
    fx_ids, fy_ids = {}, {}
    for k in range(nc):
        i, j = int(ii[k]), int(jj[k])
        if i > 0 and (i - 1) * ny + j in cellset:
            fx_ids.setdefault((i, j), len(fx_ids))
        if j > 0 and i * ny + (j - 1) in cellset:
            fy_ids.setdefault((i, j), len(fy_ids))
    nfx, nfy = len(fx_ids), len(fy_ids)
    nf = nfx + nfy
    if nf == 0:
        if l1 > 0:
            raise CompatibilityError(f"patch of node {node} has no interior face")
        return LocalSolve(node, cells, {}, {}, 0.0, 0.0)

    # component Laplacians (4I - adjacency on each face lattice)
    def laplacian(ids):
        n = len(ids)
        rows, cols = [], []
        for (i, j), a in ids.items():
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                b = ids.get((i + di, j + dj))
                if b is not None:
                    rows.append(a)
                    cols.append(b)
        data = -np.ones(len(rows))
        A = sp.coo_matrix((data, (rows, cols)), shape=(n, n))
        return (sp.eye(n) * 4.0 + A).tocsr()

    Ax = laplacian(fx_ids)
    Ay = laplacian(fy_ids)
    A = sp.block_diag([Ax, Ay], format="csr")

    # constraint: sum of signed faces per cell = h * f
    rows, cols, data = [], [], []
    for k in range(nc):
        i, j = int(ii[k]), int(jj[k])
        for key, sign, off in (
            ((i + 1, j), 1.0, 0),
            ((i, j), -1.0, 0),
        ):
            a = fx_ids.get(key)
            if a is not None:
                rows.append(k)
                cols.append(a)
                data.append(sign)
        for key, sign in (((i, j + 1), 1.0), ((i, j), -1.0)):
            a = fy_ids.get(key)
            if a is not None:
                rows.append(k)
                cols.append(nfx + a)
                data.append(sign)
    B = sp.coo_matrix((data, (rows, cols)), shape=(nc, nf)).tocsr()
    rhs_c = h * f_vals

    # KKT with the first cell's multiplier pinned (B has a constant null space
    # per connected patch; compatibility holds by the mean-zero check)
    keep = np.arange(1, nc)
    Bk = B[keep]
    K = sp.bmat([[A, Bk.T], [Bk, None]], format="csc")
    rhs = np.concatenate([np.zeros(nf), rhs_c[keep]])
    sol = spla.spsolve(K, rhs)
    u = sol[:nf]

    res_vec = B @ u - rhs_c
    scale = float(np.linalg.norm(rhs_c))
    residual = float(np.linalg.norm(res_vec)) / scale if scale > 0 else float(
        np.linalg.norm(res_vec)
    )
    if residual > SOLVER_TOL:
        raise ConvergenceError(
            f"local solve on node {node} stalled at residual {residual:.2e}",
            residual=residual,
        )
    energy = float(u[:nfx] @ (Ax @ u[:nfx]) + u[nfx:] @ (Ay @ u[nfx:]))
    fx = {key: float(u[a]) for key, a in fx_ids.items()}
    fy = {key: float(u[nfx + a]) for key, a in fy_ids.items()}
    return LocalSolve(node, cells, fx, fy, energy, residual)


def solve_divergence(tree: TreeCovering, f: GridFunction, q: float, beta: float):
    """Assemble u = sum of local solutions; report the weighted a-priori ratio.

    f must live on ``decomposition_grid(tree)`` and have zero mean over the
    covered cells. The energy minimized locally is the 2-energy regardless
    of q; the reported norms use the requested q (surrogate documented in
    the report).
    """
    if q <= 1:
        raise ParameterError("q must exceed 1")
    if (f.h, f.origin, f.dims, f.frame_offset) != grid_layout(tree):
        raise ParameterError("f is not sampled on decomposition_grid(tree)")
    dec = c_decompose(tree, f)

    nx, ny = f.dims
    FX = np.zeros((nx + 1, ny))
    FY = np.zeros((nx, ny + 1))
    energies = []
    solves = []
    for t in range(len(tree)):
        # supp(g_t) is the local patch: the cube's cells, its own transfer box
        # and its children's, which all connect through the shared faces
        loc = local_div_solve(dec.cells[t], dec.values[t], ny, f.h, node=t)
        solves.append(loc)
        energies.append(loc.energy)
        for (i, j), val in loc.fx.items():
            FX[i, j] += val
        for (i, j), val in loc.fy.items():
            FY[i, j] += val

    mac = MacField(grid=f, fx=FX, fy=FY)
    covered = dec.assignment >= 0
    div = mac.divergence()
    fnorm = float(np.linalg.norm(np.where(covered, f.values, 0.0)))
    resid = float(np.linalg.norm(np.where(covered, div - f.values, 0.0)))
    rel_resid = resid / fnorm if fnorm > 0 else resid

    vec = mac.cell_centered()
    power = -beta * q
    du = _grad_magnitude_covered(vec, covered)
    rhs_f = f.with_values(np.where(covered, np.abs(f.values), 0.0))
    lhs = weighted_lp_norm(du, q, power)
    rhs = weighted_lp_norm(rhs_f, q, power)
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
    if rel_resid > 1e-8:
        raise ConvergenceError(
            f"global divergence residual {rel_resid:.2e} exceeds 1e-8",
            residual=rel_resid,
        )
    report.solves = solves
    report.mac = mac
    report.decomposition = dec
    return vec, report


def _grad_magnitude_covered(vec: VectorFieldGrid, covered: np.ndarray) -> GridFunction:
    g = vec.grid
    masked = GridFunction(
        h=g.h, origin=g.origin, dims=g.dims,
        values=np.zeros(g.dims), mask=covered & g.mask,
        domain=g.domain, dist=g.dist, frame_offset=g.frame_offset,
    )
    comps = []
    for c in vec.components:
        comps.append(masked.with_values(np.where(masked.mask, c.values, 0.0)))
    gx = gradient(comps[0])
    gy = gradient(comps[1])
    mag = np.sqrt(
        gx.components[0].values ** 2
        + gx.components[1].values ** 2
        + gy.components[0].values ** 2
        + gy.components[1].values ** 2
    )
    out_mask = gx.components[0].mask
    return GridFunction(
        h=g.h, origin=g.origin, dims=g.dims,
        values=np.where(out_mask, mag, 0.0), mask=out_mask,
        domain=g.domain, dist=g.dist, frame_offset=g.frame_offset,
    )


def reweighted_ratio(vec: VectorFieldGrid, f: GridFunction, covered: np.ndarray,
                     q: float, beta: float) -> float:
    """Ratio of the stated weighted norms for an already-assembled velocity.

    The local solves are beta-independent (2-energy minimizers), so one
    assembly serves every weight exponent.
    """
    power = -beta * q
    du = _grad_magnitude_covered(vec, covered)
    rhs_f = f.with_values(np.where(covered, np.abs(f.values), 0.0))
    return weighted_lp_norm(du, q, power) / weighted_lp_norm(rhs_f, q, power)
