"""Discrete Hardy constants on tree coverings with distance-power weights.

The tree constant is the supremum over non-root nodes of

    S_t^(1/(theta q)) * ( sum_{s >= t} b_s w_s^p S_s^((p/q)(1 - 1/theta)) )^(1/p),

where S_t sums b_s^(-q/p) nu_s^(-q) along the path from just below the root
to t. With nu = omega = ell^beta and b = ell^n the constant is invariant
under rescaling the frame, and its finiteness under refinement is governed
by beta p relative to -(n - dim_A of the boundary).

The chain constant sums prefixes including the root, matching the chain
form of the criterion; on a four-node path with unit weights and p = 2 it
equals sqrt(6).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, StructureError
from .treecover import TreeCovering, accumulate_down, accumulate_up, build_tree
from .whitney import whitney_decompose

DEFAULT_THETA_GRID = (1.05, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0)
LOG_SPACE_LIMIT = 1e250
MAX_GRID_POINTS = 10_000


@dataclass(frozen=True)
class WeightSpec:
    beta: float
    p: float
    theta_grid: tuple = DEFAULT_THETA_GRID

    def __post_init__(self):
        if not math.isfinite(self.beta):
            raise ParameterError("beta must be finite")
        if not (math.isfinite(self.p) and self.p > 1):
            raise ParameterError("p must be finite and exceed 1")
        _check_thetas(self.theta_grid)

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)


@dataclass(frozen=True)
class DiscreteWeights:
    nu: np.ndarray
    omega: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for arr in (self.nu, self.omega, self.b):
            if np.any(arr <= 0) or not np.all(np.isfinite(arr)):
                raise ParameterError("discrete weights must be positive and finite")


@dataclass
class HardyReport:
    per_theta: dict  # theta -> (value, argmax node)
    a_tree_min: float
    best_theta: float
    argmax: int
    rows: list = field(default_factory=list)
    classification: dict = field(default_factory=dict)


def tree_weights(tree: TreeCovering, w: WeightSpec) -> DiscreteWeights:
    """nu = omega = ell^beta and b = ell^n, in frame units."""
    ell = tree.ell
    pw = ell**w.beta
    return DiscreteWeights(nu=pw, omega=pw.copy(), b=ell**tree.ndim)


def _check_thetas(thetas):
    if not all(math.isfinite(t) and t > 1 for t in thetas):
        raise ParameterError("theta must be finite and exceed 1")


def _kahan_add(acc, x):
    """Compensated sum of ``x[..., 0]`` into (sum, compensation) rows."""
    s, c = acc[..., 0], acc[..., 1]
    y = x[..., 0] - c
    out = np.empty(acc.shape)
    t = np.add(s, y, out=out[..., 0])
    np.subtract(t - s, y, out=out[..., 1])
    return out


def _in_range(arrays, positive, star):
    """Every entry finite and below 1e250 in magnitude, and every Gamma*
    entry of ``positive`` above 1e-250 (they are analytically positive, so
    a smaller one means underflow)."""
    return (all(np.all(np.isfinite(a)) for a in arrays)
            and max(float(np.abs(a).max()) for a in arrays) < LOG_SPACE_LIMIT
            and all(float(a[star].min()) > 1.0 / LOG_SPACE_LIMIT for a in positive))


def a_tree(tree: TreeCovering, w: WeightSpec, theta: float,
           weights: DiscreteWeights | None = None):
    """Exact evaluation of the tree Hardy constant for one theta.

    Returns (value, argmax node); see ``a_tree_thetas``.
    """
    return a_tree_thetas(tree, w, (theta,), weights)[0]


def a_tree_thetas(tree: TreeCovering, w: WeightSpec, thetas,
                  weights: DiscreteWeights | None = None) -> list:
    """Exact evaluation of the tree Hardy constant for each theta of ``thetas``.

    Returns one (value, argmax node) per theta. S is summed once; the
    shadow sums of all thetas share one up-sweep over (n, thetas, 2) Kahan
    rows. Each theta's exponents are Python float scalars, so numpy maps
    them to the same sqrt/pow kernels as a single theta would. On overflow
    the value is +inf and the argmax points at the offending node; a theta
    whose magnitudes pass 1e+-250 is evaluated in log space.
    """
    _check_thetas(thetas)
    dw = tree_weights(tree, w) if weights is None else weights
    q = w.q
    n = len(tree)
    if n <= 1:
        return [(0.0, tree.root)] * len(thetas)

    star = np.arange(n) != tree.root
    with np.errstate(over="ignore", invalid="ignore"):
        term = dw.b ** (-q / w.p) * dw.nu ** (-q)
        # S_t sums term along the path from just below the root to t
        x = np.stack([term, np.zeros(n)], axis=-1)
        x[tree.root] = 0.0
        S = accumulate_down(tree, x, _kahan_add)[:, 0]
        Sg = np.where(S > 0, S, 1.0)
        base = dw.b * dw.omega**w.p
        e = np.zeros((n, len(thetas), 2))
        for j, theta in enumerate(thetas):
            e[:, j, 0] = base * Sg ** ((w.p / q) * (1.0 - 1.0 / theta))
        e[tree.root] = 0.0  # the root never belongs to a shadow over Gamma*
        T = accumulate_up(tree, e, _kahan_add)[..., 0]  # shadow sums
    shared_ok = _in_range((term, S), (term, S), star)
    out = []
    for j, theta in enumerate(thetas):
        with np.errstate(over="ignore", invalid="ignore"):
            cand = np.where(S > 0, S ** (1.0 / (theta * q)) * T[:, j] ** (1.0 / w.p), 0.0)
        if shared_ok and _in_range((e[:, j, 0], T[:, j], cand), (e[:, j, 0], T[:, j]), star):
            t_star = int(cand.argmax())
            out.append((float(cand[t_star]), t_star))
        else:
            out.append(_a_tree_log(tree, w, theta, dw))
    return out


def _a_tree_log(tree, w, theta, dw):
    q = w.q
    logterm = (-q / w.p) * np.log(dw.b) - q * np.log(dw.nu)
    logterm[tree.root] = -np.inf
    logS = accumulate_down(tree, logterm, np.logaddexp)
    expo = (w.p / q) * (1.0 - 1.0 / theta)
    loge = np.log(dw.b) + w.p * np.log(dw.omega) + expo * np.where(
        np.isfinite(logS), logS, 0.0
    )
    loge[tree.root] = -np.inf
    logT = accumulate_up(tree, loge, np.logaddexp)
    with np.errstate(invalid="ignore"):
        logcand = np.where(
            np.isfinite(logS), logS / (theta * q) + logT / w.p, -np.inf
        )
    t_star = int(logcand.argmax())
    if logcand[t_star] > math.log(float(np.finfo(float).max)):
        return math.inf, t_star
    return float(math.exp(logcand[t_star])), t_star


def a_tree_min(tree: TreeCovering, w: WeightSpec,
               weights: DiscreteWeights | None = None) -> HardyReport:
    """Minimum of the tree constant over the theta grid."""
    per = dict(zip(w.theta_grid, a_tree_thetas(tree, w, w.theta_grid, weights)))
    best_theta = min(per, key=lambda th: per[th][0])
    val, arg = per[best_theta]
    return HardyReport(per_theta=per, a_tree_min=val, best_theta=best_theta, argmax=arg)


def a_chain(chain: TreeCovering, w: WeightSpec,
            weights: DiscreteWeights | None = None) -> float:
    """Chain Hardy constant: sup over non-root t of prefix^(1/q) suffix^(1/p).

    The prefix sum runs over all s preceding-or-equal t including the root.
    A single node has empty Gamma* and reports the degenerate value 0.
    """
    if not chain.is_chain:
        raise StructureError("a_chain requires a chain (every node has at most one child)")
    dw = tree_weights(chain, w) if weights is None else weights
    n = len(chain)
    if n <= 1:
        return 0.0
    q = w.q
    # chain order: root first along tree.order
    order = chain.order
    term_pre = dw.b ** (-q / w.p) * dw.nu ** (-q)
    term_suf = dw.b * dw.omega**w.p
    pre = np.cumsum(term_pre[order])
    suf = np.cumsum(term_suf[order][::-1])[::-1]
    vals = pre[1:] ** (1.0 / q) * suf[1:] ** (1.0 / w.p)
    return float(vals.max())


# ---------------------------------------------------------------------------
# beta sweep


@dataclass
class SweepRow:
    beta: float
    p: float
    theta: float
    level: int
    a_tree: float
    argmax_node: int
    classification: str


def classify_growth(values) -> tuple[str, list]:
    """Convergent when the refinement increments shrink, divergent when they grow.

    The raw level ratio A(k+1)/A(k) approaches 1 too slowly to threshold at
    reachable truncations (the convergent tail decays like 2^(-j/3) per
    level), so the classifier looks at successive increments instead: a
    summable series has strictly shrinking increments, a geometrically
    growing one has non-decreasing increments. With fewer than three levels
    the raw-ratio threshold 1.05 is the fallback.
    """
    vals = list(values)
    if any(not math.isfinite(v) for v in vals):
        return "divergent", []
    ratios = [b / a for a, b in zip(vals, vals[1:]) if a > 0]
    if not ratios:
        return "inconclusive", ratios
    if len(vals) < 3:
        return ("divergent" if ratios[-1] >= 1.05 else "convergent"), ratios
    deltas = [b - a for a, b in zip(vals, vals[1:])]
    if deltas[-2] <= 0:
        return "convergent", ratios
    gamma = deltas[-1] / deltas[-2]
    if gamma >= 1.0:
        return "divergent", ratios
    if gamma < 0.95:
        return "convergent", ratios
    return "inconclusive", ratios


def beta_sweep(dom, p: float, betas, levels,
               theta_grid=DEFAULT_THETA_GRID) -> HardyReport:
    """A_tree_min per (beta, truncation level) with growth classification."""
    levels = list(levels)
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ParameterError("levels must be strictly increasing")
    specs = [WeightSpec(beta=beta, p=p, theta_grid=tuple(theta_grid)) for beta in betas]
    trees = {lv: build_tree(whitney_decompose(dom, lv)) for lv in levels}
    rows = []
    classification = {}
    for w in specs:
        beta = w.beta
        reps = [a_tree_min(trees[lv], w) for lv in levels]
        vals = [rep.a_tree_min for rep in reps]
        cls, ratios = classify_growth(vals)
        classification[beta] = {"class": cls, "ratios": ratios, "values": vals}
        for lv, rep in zip(levels, reps):
            rows.append(
                SweepRow(
                    beta=beta,
                    p=p,
                    theta=rep.best_theta,
                    level=lv,
                    a_tree=rep.a_tree_min,
                    argmax_node=rep.argmax,
                    classification=cls,
                )
            )
    return HardyReport(
        per_theta={}, a_tree_min=math.nan, best_theta=math.nan, argmax=-1,
        rows=rows, classification=classification,
    )


def write_sweep_csv(report: HardyReport, path) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["beta", "p", "theta", "level", "A_tree", "argmax_node", "classification"])
        for r in report.rows:
            wr.writerow([r.beta, r.p, r.theta, r.level, r.a_tree, r.argmax_node, r.classification])


def parse_grid(text: str):
    """start:stop:step grid specification (stop inclusive up to rounding)."""
    try:
        start, stop, step = (float(v) for v in text.split(":"))
    except ValueError as exc:
        raise ParameterError(f"bad grid spec {text!r}; expected start:stop:step") from exc
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ParameterError(f"bad grid spec {text!r}; start, stop and step must be finite")
    if step <= 0:
        raise ParameterError("grid step must be positive")
    count = (stop - start) / step + 1e-9
    if not count < MAX_GRID_POINTS:
        raise ParameterError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    n = int(math.floor(count)) + 1
    return [start + k * step for k in range(max(n, 1))]
