"""Measured constants for the weighted Poincare, Korn and Fefferman-Stein inequalities.

Every operation returns the two sides of an inequality and their ratio;
verification means watching the ratio stay bounded under grid refinement
(and under the parameter scalings the statements predict), not asserting a
universal constant. ``InequalityReport`` forms every report, the divergence
estimate's too, by one rule.
"""

from __future__ import annotations

import copy
import math
from dataclasses import InitVar, dataclass, field as dc_field

import numpy as np

from . import geometry
from .errors import ParameterError
from .fields import (
    GridFunction,
    _weighted_mean,
    cell_center_xy,
    check_exponents,
    distance_weight,
    gradient,
    gradient_norm,
    weighted_lp_norm,
    weighted_mean_zero,
)

# Most Monte Carlo samples of one fractional Poincare estimate: only the
# float64 weights are held in full, 8 bytes a sample (the cell picks are
# drawn per block), and the moments are taken in place on the weights, so
# 10^8 samples take about 0.8 GB, measured under tracemalloc.
MAX_MC_SAMPLES = 10**8


@dataclass
class InequalityReport:
    """The two sides of ``inequality`` measured on ``grid``, by one rule:
    ``domain`` and ``h`` are the grid's, ``ratio`` is lhs / rhs where rhs > 0
    and NaN otherwise, a side or ratio that is not finite raises
    ParameterError, and a report with rhs = 0 names why it is ``degenerate``.
    So every non-degenerate ratio is finite."""

    inequality: str
    grid: InitVar[GridFunction]
    params: dict
    lhs: float
    rhs: float
    test_function: str = ""
    degenerate: str | None = None
    extra: dict = dc_field(default_factory=dict)
    domain: str = dc_field(init=False)
    h: float = dc_field(init=False)
    ratio: float = dc_field(init=False)

    def __post_init__(self, grid: GridFunction):
        if self.rhs == 0.0 and self.degenerate is None:
            raise ValueError(f"{self.inequality}: a report with rhs = 0 must name why it "
                             "is degenerate")
        self.domain = grid.domain.name
        self.h = grid.h
        self.ratio = self.lhs / self.rhs if self.rhs > 0 else math.nan
        if not (math.isfinite(self.lhs) and math.isfinite(self.rhs)
                and not math.isinf(self.ratio)):
            raise ParameterError(f"{self.inequality}: lhs = {self.lhs!r}, rhs = {self.rhs!r}: "
                                 "the measured sides and their ratio must be finite")


# ---------------------------------------------------------------------------
# improved Poincare


def improved_poincare_ratio(f: GridFunction, p: float, beta: float,
                            label: str = "") -> InequalityReport:
    """|| f ||_{L^p(d^{beta p})} against || grad f ||_{L^p(d^{(beta+1) p})}."""
    f0 = weighted_mean_zero(f, p, beta)
    lhs = weighted_lp_norm(f0, p, beta * p)
    rhs = weighted_lp_norm(gradient_norm(f0), p, (beta + 1.0) * p)
    return InequalityReport("improved_poincare", f, {"p": p, "beta": beta}, lhs, rhs, label,
                            degenerate="constant input (0/0)" if rhs == 0.0 else None)


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
    contribute zero. When no sampled pair contributes while the left side
    is positive, the grid is too coarse for the balls and the report is
    degenerate.
    """
    if not 0.0 < s < 1.0:
        raise ParameterError("s must lie in (0, 1)")
    if not 0.0 < tau < 1.0:
        raise ParameterError("tau must lie in (0, 1)")
    if mc_samples < 10_000:
        raise ParameterError("need at least 1e4 Monte Carlo samples")
    if mc_samples > MAX_MC_SAMPLES:
        raise ParameterError(f"{mc_samples} Monte Carlo samples need {8e-9 * mc_samples:.3g} "
                             f"GB, more than the {MAX_MC_SAMPLES} allowed")
    n = 2
    u0 = weighted_mean_zero(u, p, beta)
    lhs = weighted_lp_norm(u0, p, beta * p)

    # The stream is all picks, then all radial, then all angular uniforms,
    # whatever the block size. Below 2^31 cells the int32 picks equal the
    # int64 ones and leave the generator in the same state. PCG64 keeps its
    # spare 32-bit half-word in the generator's state, so picks drawn block
    # by block concatenate to one draw: a copy taken before them draws each
    # block's picks, and the generator skips them by one draw that is
    # dropped before the weights exist (4 bytes a sample, under the
    # weights' 8). Skipped block by block instead, they left glibc trimming
    # the blocks' pages: 56,000 minor faults in a first call at 10^6
    # samples, against 2,500. Each uniform is one generator step, so the
    # radial ones come block by block from the generator and the angular
    # ones from a copy advanced past them. They fill two reused buffers: two
    # new arrays per block cost 10x the page faults (61,000 instead of 5,800
    # at 10^6 samples) and 1.5x the time.
    rng = np.random.default_rng(seed)
    ii, jj = np.nonzero(u0.mask)
    pick_dtype = np.int32 if len(ii) < 2**31 else np.int64
    pick_rng = copy.deepcopy(rng)
    rng.integers(0, len(ii), size=mc_samples, dtype=pick_dtype)
    angular_rng = copy.deepcopy(rng)
    angular_rng.bit_generator.advance(mc_samples)
    weights = np.empty(mc_samples)
    dropped = 0
    # A block's working set is about 20 arrays of its length in
    # _fractional_block and about 7 tile temporaries of at most BLOCK // 8
    # pairs in the boundary_distances call: about 3 BLOCK floats at blocks
    # of BLOCK // 8 samples.
    block = max(1, geometry.BLOCK // 8)
    radial, angular = np.empty(block), np.empty(block)
    for lo in range(0, mc_samples, block):
        hi = min(lo + block, mc_samples)
        pick = pick_rng.integers(0, len(ii), size=hi - lo, dtype=pick_dtype)
        dropped += _fractional_block(u0, p, beta, s, tau, ii[pick], jj[pick],
                                     rng.random(out=radial[:hi - lo]),
                                     angular_rng.random(out=angular[:hi - lo]),
                                     weights[lo:hi])
    area = float(u0.mask.sum()) * u0.h**2
    mean, std = _mean_and_std(weights)
    est = area * mean
    se = area * std / math.sqrt(mc_samples)
    rhs = est ** (1.0 / p) if est > 0 else 0.0
    rel_se = se / (p * est) if est > 0 else math.inf
    degenerate = None
    if lhs == 0.0:
        degenerate = "constant input"
    elif est == 0.0:
        degenerate = "resolution insufficient: sampled fractional seminorm vanished"
    params = {"p": p, "beta": beta, "s": s, "tau": tau, "mc_samples": mc_samples, "seed": seed}
    rep = InequalityReport("fractional_poincare", u, params, lhs, rhs, label, degenerate,
                           extra={"rhs_power_estimate": est, "rhs_power_se": se,
                                  "rhs_relative_se": rel_se, "dropped_samples": dropped})
    rep.extra["normalized_ratio"] = rep.ratio * tau ** (n - s)
    return rep


def _mean_and_std(x: np.ndarray) -> tuple[float, float]:
    """``x.mean()`` and ``x.std(ddof=1)`` of a float array, taken in place:
    ``x`` is overwritten with its squared deviations.

    The steps are numpy's own ``_mean`` and ``_var`` on one array, so both
    keep their bits. Where n max|x - mean|^2 may pass the float range, the
    deviations are first scaled by a power of two and the result scaled
    back; scaling by 2^-k is exact, so the squares only leave out what lies
    below the normal range, and the standard error of finite values stays
    finite.
    """
    n = len(x)
    mean = x.sum() / n
    x -= mean
    amax = max(float(x.max()), -float(x.min()))
    k = 0
    if math.isfinite(amax) and n * amax * amax > 2.0**1022:
        k = math.frexp(amax)[1] - (1022 - n.bit_length()) // 2
        x *= 2.0**-k
    np.square(x, out=x)
    return float(mean), math.sqrt(x.sum() / (n - 1)) * 2.0**k


def _fractional_block(u0: GridFunction, p, beta, s, tau, xi, xj, radial, angular,
                      weights) -> int:
    """Write one block of Monte Carlo weights for the x cells (xi, xj) and
    their uniforms into ``weights``; return the count of dropped samples.
    A function, so one block's temporaries are freed before the next."""
    n = 2
    nx, ny = u0.dims
    cx, cy = cell_center_xy(u0.h, u0.origin, xi, xj)
    dx = u0.dist[xi, xj]
    ux = u0.values[xi, xj]
    R = tau * dx

    rho = R * np.sqrt(radial)
    phi = angular * (2.0 * math.pi)
    yx = cx + rho * np.cos(phi)
    yy = cy + rho * np.sin(phi)
    ki = np.floor((yx - u0.origin[0]) / u0.h).astype(np.int64)
    kj = np.floor((yy - u0.origin[1]) / u0.h).astype(np.int64)
    valid = (ki >= 0) & (ki < nx) & (kj >= 0) & (kj < ny)
    ki = np.clip(ki, 0, nx - 1)
    kj = np.clip(kj, 0, ny - 1)
    valid &= u0.mask[ki, kj]

    uy = u0.values[ki, kj]
    dy = geometry.boundary_distances(u0.domain, np.stack([yx, yy], axis=1))
    delta = np.minimum(dx, dy)
    dist2 = (yx - cx) ** 2 + (yy - cy) ** 2
    dist2 = np.maximum(dist2, 1e-300)
    integrand = (
        np.abs(ux - uy) ** p
        * dist2 ** (-(n + s * p) / 2.0)
        * distance_weight(delta, (beta + s) * p)
    )
    ball_area = math.pi * R**2
    weights[:] = np.where(valid, integrand * ball_area, 0.0)
    return int(len(valid) - valid.sum())


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

    a = _weighted_mean(base.with_values(eta), beta * p)
    eta0 = eta - a  # u - A x shifts only the antisymmetric part

    # squares that overflow give infinite sides, which the report rejects
    with np.errstate(over="ignore"):
        eps_sq = G[0][0] ** 2 + G[1][1] ** 2 + 2.0 * (0.5 * (G[0][1] + G[1][0])) ** 2
        du_sq = eps_sq + 2.0 * eta0**2
    eps_mag = base.with_values(np.where(mask, np.sqrt(eps_sq), 0.0))
    du_mag = base.with_values(np.where(mask, np.sqrt(du_sq), 0.0))
    rhs = weighted_lp_norm(eps_mag, p, beta * p)
    lhs = weighted_lp_norm(du_mag, p, beta * p)
    return InequalityReport("korn", ux, {"p": p, "beta": beta}, lhs, rhs, label,
                            degenerate="infinitesimal rigid motion" if rhs == 0.0 else None,
                            extra={"eta_mean_removed": a})


# ---------------------------------------------------------------------------
# restricted sharp maximal function


def _cube_family(dims, scales: int):
    """Dyadic cell-aligned cube sides; single cells are skipped (zero oscillation)."""
    top = 1 << max(dims).bit_length()
    return [top >> j for j in range(scales + 1) if 2 <= top >> j <= max(dims)]


def sharp_maximal(f: GridFunction, sigma: float = 1.0,
                  scales: int = 8) -> GridFunction:
    """Discrete restricted sharp maximal function over shifted dyadic cubes.

    For each cell the value is the largest mean oscillation (1/|Q|) int_Q
    |f - f_Q| over cubes of the family that contain the cell and satisfy
    sigma Q inside the open domain; zero if no cube qualifies. The result is
    extended by zero outside the domain mask.

    ``f.mask`` must be the grid's inside mask: a cube whose widened sigma Q
    meets no edge lies on one side, and its first cell's centre lies in Q,
    so that cell's mask bit is the cube's side.
    """
    if not 1.0 <= sigma < math.inf:
        raise ParameterError(f"sigma must be finite and >= 1, got {sigma!r}")
    if not scales >= 1:
        raise ParameterError(f"scales must be >= 1, got {scales!r}")
    nx, ny = f.dims
    sides = _cube_family(f.dims, scales)
    # the widest sigma-scaled box reaches at most this far from 0
    reach = max(map(abs, f.origin)) + max(nx, ny) * f.h + sigma * max(sides, default=0) * f.h
    if not math.isfinite(reach):
        raise ParameterError(f"sigma = {sigma!r} scales the cubes' boxes beyond the float range")
    vals = np.where(f.mask, f.values, 0.0)
    out = np.zeros((nx, ny))
    for w in sides:
        for sx in (0, w // 2):
            for sy in (0, w // 2):
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
        f.domain, centers - half, centers + half, f.mask[np.ix_(x0s, y0s)].ravel()
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
    rep = InequalityReport("fefferman_stein", f,
                           {"p": p, "beta": beta, "sigma": sigma, "scales": scales},
                           lhs, rhs, label, degenerate)
    rep.extra["ratio_over_sigma_n"] = rep.ratio / sigma**n
    return rep
