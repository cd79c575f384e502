"""Measured constants for the weighted Poincare, Korn and Fefferman-Stein inequalities.

Every operation returns the two sides of an inequality and their ratio;
verification means watching the ratio stay bounded under grid refinement
(and under the parameter scalings the statements predict), not asserting a
universal constant.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field as dc_field, replace

import numpy as np

from . import geometry
from .errors import ParameterError
from .fields import (
    GridFunction,
    cell_center_xy,
    check_exponents,
    gradient,
    gradient_norm,
    weighted_lp_norm,
    weighted_mean_zero,
)


@dataclass
class InequalityReport:
    inequality: str
    domain: str
    params: dict
    lhs: float
    rhs: float
    ratio: float
    h: float
    test_function: str = ""
    degenerate: str | None = None
    extra: dict = dc_field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def write_reports_jsonl(reports, path) -> None:
    with open(path, "w") as fh:
        for rep in reports:
            fh.write(rep.to_json() + "\n")


def write_reports_csv(reports, path) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["inequality", "domain", "params", "h", "lhs", "rhs", "ratio", "degenerate"])
        for r in reports:
            wr.writerow(
                [r.inequality, r.domain, json.dumps(r.params, sort_keys=True),
                 r.h, r.lhs, r.rhs, r.ratio, r.degenerate or ""]
            )


# ---------------------------------------------------------------------------
# improved Poincare


def improved_poincare_ratio(f: GridFunction, p: float, beta: float,
                            label: str = "") -> InequalityReport:
    """|| f ||_{L^p(d^{beta p})} against || grad f ||_{L^p(d^{(beta+1) p})}."""
    f0 = weighted_mean_zero(f, p, beta)
    lhs = weighted_lp_norm(f0, p, beta * p)
    rhs = weighted_lp_norm(gradient_norm(f0), p, (beta + 1.0) * p)
    degenerate = "constant input (0/0)" if rhs == 0.0 else None
    return InequalityReport(
        inequality="improved_poincare",
        domain=f.domain.name,
        params={"p": p, "beta": beta},
        lhs=lhs,
        rhs=rhs,
        ratio=lhs / rhs if rhs > 0 else math.nan,
        h=f.h,
        test_function=label,
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# fractional Poincare


def fractional_poincare_ratio(u: GridFunction, p: float, beta: float, s: float,
                              tau: float, mc_samples: int, seed: int = 0,
                              label: str = "") -> InequalityReport:
    """Monte Carlo estimate of the localized fractional seminorm side.

    x is drawn uniformly over the masked cells (at cell centers, where the
    distance is exact and the ball B(x, tau d(x)) stays inside the open
    domain); y is uniform in that ball and evaluated on the cell containing
    it. Samples whose y-cell is outside the mask are dropped and counted.
    The estimator bias near the |x - y| singularity is reported, not
    removed: u is piecewise constant per cell, so pairs inside one cell
    contribute zero.
    """
    if not 0.0 < s < 1.0:
        raise ParameterError("s must lie in (0, 1)")
    if not 0.0 < tau < 1.0:
        raise ParameterError("tau must lie in (0, 1)")
    if mc_samples < 10_000:
        raise ParameterError("need at least 1e4 Monte Carlo samples")
    n = 2
    u0 = weighted_mean_zero(u, p, beta)
    lhs = weighted_lp_norm(u0, p, beta * p)

    rng = np.random.default_rng(seed)
    nx, ny = u0.dims
    ii, jj = np.nonzero(u0.mask)
    pick = rng.integers(0, len(ii), size=mc_samples)
    xi, xj = ii[pick], jj[pick]
    cx, cy = cell_center_xy(u0.h, u0.origin, xi, xj)
    dx = u0.dist[xi, xj]
    ux = u0.values[xi, xj]
    R = tau * dx

    rho = R * np.sqrt(rng.random(mc_samples))
    phi = rng.random(mc_samples) * (2.0 * math.pi)
    yx = cx + rho * np.cos(phi)
    yy = cy + rho * np.sin(phi)
    ki = np.floor((yx - u0.origin[0]) / u0.h).astype(np.int64)
    kj = np.floor((yy - u0.origin[1]) / u0.h).astype(np.int64)
    valid = (ki >= 0) & (ki < nx) & (kj >= 0) & (kj < ny)
    ki = np.clip(ki, 0, nx - 1)
    kj = np.clip(kj, 0, ny - 1)
    valid &= u0.mask[ki, kj]
    dropped = int(mc_samples - valid.sum())

    uy = u0.values[ki, kj]
    dy = geometry.boundary_distances(u0.domain, np.stack([yx, yy], axis=1))
    delta = np.minimum(dx, dy)
    dist2 = (yx - cx) ** 2 + (yy - cy) ** 2
    dist2 = np.maximum(dist2, 1e-300)
    integrand = (
        np.abs(ux - uy) ** p
        * dist2 ** (-(n + s * p) / 2.0)
        * delta ** ((beta + s) * p)
    )
    ball_area = math.pi * R**2
    weights = np.where(valid, integrand * ball_area, 0.0)
    area = float(u0.mask.sum()) * u0.h**2
    est = area * float(weights.mean())
    se = area * float(weights.std(ddof=1)) / math.sqrt(mc_samples)
    rhs = est ** (1.0 / p) if est > 0 else 0.0
    rel_se = se / (p * est) if est > 0 else math.inf
    degenerate = "constant input" if lhs == 0.0 else None
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0.0 else math.nan)
    return InequalityReport(
        inequality="fractional_poincare",
        domain=u.domain.name,
        params={"p": p, "beta": beta, "s": s, "tau": tau,
                "mc_samples": mc_samples, "seed": seed},
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        h=u.h,
        test_function=label,
        degenerate=degenerate,
        extra={
            "normalized_ratio": ratio * tau ** (n - s) if math.isfinite(ratio) else math.nan,
            "rhs_power_estimate": est,
            "rhs_power_se": se,
            "rhs_relative_se": rel_se,
            "dropped_samples": dropped,
        },
    )


# ---------------------------------------------------------------------------
# Korn


def korn_ratio(u: tuple[GridFunction, GridFunction], p: float, beta: float,
               label: str = "") -> InequalityReport:
    """|| D u ||_{L^p(d^{beta p})} / || eps(u) ||, after removing the weighted
    mean of the antisymmetric part (a rigid rotation, which leaves eps
    unchanged; the discrete differences are exact on affine fields).

    ``u`` is the pair (u_x, u_y), which must share one grid."""
    ux, uy = u
    if (ux.h != uy.h or ux.dims != uy.dims or ux.origin != uy.origin
            or not np.array_equal(ux.mask, uy.mask)):
        raise ParameterError("vector components must share one grid")
    check_exponents(p, beta * p)  # before the weighted mean below
    gx, gy = gradient(ux), gradient(uy)
    base = gx[0]
    mask = base.mask  # the gradients of fields on one grid share it
    G = np.stack([[d.values for d in gx], [d.values for d in gy]])  # G[i][j] = d u_i / d x_j
    eta = 0.5 * (G[0][1] - G[1][0])

    ref = replace(base, values=np.where(mask, eta, 0.0), mask=mask)
    sel = ref.quad_mask
    w = ref.dist[sel] ** (beta * p)
    denom = float(w.sum())
    if denom == 0.0:
        raise ParameterError("zero total weight")
    a = float((ref.values[sel] * w).sum()) / denom
    eta0 = eta - a  # u - A x shifts only the antisymmetric part

    eps_sq = G[0][0] ** 2 + G[1][1] ** 2 + 2.0 * (0.5 * (G[0][1] + G[1][0])) ** 2
    du_sq = eps_sq + 2.0 * eta0**2
    eps_mag = ref.with_values(np.where(mask, np.sqrt(eps_sq), 0.0))
    du_mag = ref.with_values(np.where(mask, np.sqrt(du_sq), 0.0))
    rhs = weighted_lp_norm(eps_mag, p, beta * p)
    lhs = weighted_lp_norm(du_mag, p, beta * p)
    degenerate = "infinitesimal rigid motion" if rhs == 0.0 else None
    return InequalityReport(
        inequality="korn",
        domain=ux.domain.name,
        params={"p": p, "beta": beta},
        lhs=lhs,
        rhs=rhs,
        ratio=lhs / rhs if rhs > 0 else math.nan,
        h=ux.h,
        test_function=label,
        degenerate=degenerate,
        extra={"eta_mean_removed": a},
    )


# ---------------------------------------------------------------------------
# restricted sharp maximal function


def _cube_family(dims, scales: int):
    """Dyadic cell-aligned cube sides; single cells are skipped (zero oscillation)."""
    top = 1 << max(dims).bit_length()
    sides = []
    for j in range(scales + 1):
        w = top >> j
        if w < 2:
            break
        if w <= max(dims) and w not in sides:
            sides.append(w)
    return sides


def sharp_maximal(f: GridFunction, sigma: float = 1.0,
                  scales: int = 8) -> GridFunction:
    """Discrete restricted sharp maximal function over shifted dyadic cubes.

    For each cell the value is the largest mean oscillation (1/|Q|) int_Q
    |f - f_Q| over cubes of the family that contain the cell and satisfy
    sigma Q inside the open domain; zero if no cube qualifies. The result is
    extended by zero outside the domain mask.
    """
    if not 1.0 <= sigma < math.inf:
        raise ParameterError(f"sigma must be finite and >= 1, got {sigma!r}")
    if not scales >= 1:
        raise ParameterError(f"scales must be >= 1, got {scales!r}")
    nx, ny = f.dims
    vals = np.where(f.mask, f.values, 0.0)
    out = np.zeros((nx, ny))
    for w in _cube_family(f.dims, scales):
        shift_vals = sorted({0, w // 2})
        for sx in shift_vals:
            for sy in shift_vals:
                _accumulate_oscillation(f, vals, out, w, sx, sy, sigma)
    out = np.where(f.mask, out, 0.0)
    return f.with_values(out)


def _accumulate_oscillation(f, vals, out, w, sx, sy, sigma):
    nx, ny = f.dims
    x0s = np.arange(sx, nx - w + 1, w)
    y0s = np.arange(sy, ny - w + 1, w)
    if len(x0s) == 0 or len(y0s) == 0:
        return
    # admissibility of the sigma-scaled boxes, exact polygon geometry
    half = sigma * w * f.h / 2.0
    CX, CY = np.meshgrid(
        f.origin[0] + (x0s + w / 2.0) * f.h,
        f.origin[1] + (y0s + w / 2.0) * f.h,
        indexing="ij",
    )
    centers = np.stack([CX.ravel(), CY.ravel()], axis=1)
    admissible = geometry.boxes_inside_domain(
        f.domain, centers - half, centers + half
    ).reshape(len(x0s), len(y0s))
    if not admissible.any():
        return
    X0, X1 = x0s[0], x0s[-1] + w
    Y0, Y1 = y0s[0], y0s[-1] + w
    block = vals[X0:X1, Y0:Y1].reshape(len(x0s), w, len(y0s), w)
    means = block.mean(axis=(1, 3))
    osc = np.abs(block - means[:, None, :, None]).mean(axis=(1, 3))
    osc = np.where(admissible, osc, 0.0)
    patch = np.repeat(np.repeat(osc, w, axis=0), w, axis=1)
    region = out[X0:X1, Y0:Y1]
    np.maximum(region, patch, out=region)


def fefferman_stein_ratio(f: GridFunction, p: float, beta: float, sigma: float,
                          scales: int = 8, label: str = "") -> InequalityReport:
    """|| f ||_{L^p(d^{beta p})} against sigma^n-scaled sharp-maximal norm."""
    n = 2
    f0 = weighted_mean_zero(f, p, beta)
    lhs = weighted_lp_norm(f0, p, beta * p)
    sharp = sharp_maximal(f0, sigma=sigma, scales=scales)
    rhs = weighted_lp_norm(sharp, p, beta * p)
    degenerate = None
    if lhs == 0.0:
        degenerate = "zero input"
    elif rhs == 0.0:
        degenerate = "resolution insufficient: sharp maximal vanished"
    ratio = lhs / rhs if rhs > 0 else math.nan
    return InequalityReport(
        inequality="fefferman_stein",
        domain=f.domain.name,
        params={"p": p, "beta": beta, "sigma": sigma, "scales": scales},
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        h=f.h,
        test_function=label,
        degenerate=degenerate,
        extra={"ratio_over_sigma_n": ratio / sigma**n if math.isfinite(ratio) else math.nan},
    )
