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
# entries n * betas * thetas of one beta block of a sweep; bounds its temporaries
BETA_BLOCK_ENTRIES = 2**16


@dataclass(frozen=True)
class WeightSpec:
    beta: float
    p: float

    def __post_init__(self):
        if not math.isfinite(self.beta):
            raise ParameterError("beta must be finite")
        if not (math.isfinite(self.p) and self.p > 1):
            raise ParameterError("p must be finite and exceed 1")

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)


@dataclass
class HardyReport:
    per_theta: dict  # theta -> (value, argmax node)
    a_tree_min: float
    best_theta: float
    argmax: int
    rows: list = field(default_factory=list)
    classification: dict = field(default_factory=dict)


def _weights(tree: TreeCovering, beta: float):
    """(ell^beta, ell^n): nu = omega = ell^beta and b = ell^n, in frame units.

    None when either leaves the positive float range; such a beta is
    evaluated in log space from beta log ell.
    """
    ell = tree.ell
    with np.errstate(over="ignore", under="ignore"):
        pw, b = ell**beta, ell**tree.ndim
        if all(np.isfinite(a).all() and (a > 0).all() for a in (pw, b)):
            return pw, b
    return None


def _kahan_add(acc, x):
    """Compensated sum of ``x[..., 0]`` into (sum, compensation) rows."""
    s, c = acc[..., 0], acc[..., 1]
    y = x[..., 0] - c
    out = np.empty(acc.shape)
    t = np.add(s, y, out=out[..., 0])
    np.subtract(t - s, y, out=out[..., 1])
    return out


def _in_range(arrays, positive, star):
    """Per column (every index after the node axis 0): every entry finite
    and below 1e250 in magnitude, and every Gamma* entry of ``positive``
    above 1e-250 (they are analytically positive, so a smaller one means
    underflow). A NaN or inf propagates into the max and fails it."""
    ok = True
    for a in arrays:
        ok = ok & (np.maximum(a.max(axis=0), -a.min(axis=0)) < LOG_SPACE_LIMIT)
    where = star.reshape((-1,) + (1,) * (positive[0].ndim - 1))
    for a in positive:
        ok = ok & (a.min(axis=0, where=where, initial=np.inf) > 1.0 / LOG_SPACE_LIMIT)
    return ok


def a_tree(tree: TreeCovering, w: WeightSpec, theta: float):
    """Exact evaluation of the tree Hardy constant for one theta.

    Returns (value, argmax node); see ``_a_tree_block``.
    """
    if not (math.isfinite(theta) and theta > 1):
        raise ParameterError("theta must be finite and exceed 1")
    return _a_tree_block(tree, [w], (theta,))[0][0]


def _a_tree_block(tree: TreeCovering, specs, thetas) -> list:
    """(value, argmax node) per theta of ``thetas``, per spec of ``specs``.

    The specs share p. S is summed once for the block, in one down-sweep
    over (n, betas, 2) Kahan rows, and the shadow sums of every (beta,
    theta) column share one up-sweep over (n, betas, thetas, 2) rows. Every
    power has a Python float scalar exponent and a contiguous 1-D operand,
    one (beta, theta) column at a time, so numpy maps it to the same
    sqrt/pow kernel as a lone theta would; an array exponent would turn a
    0.5 from sqrt into pow and move last bits. The range checks and the
    argmax reduce over the node axis of each column. A column whose
    magnitudes pass 1e+-250 is evaluated in log space, and so is every
    theta of a beta whose ell^beta leaves the float range; the log-space
    thetas of one beta share one log S down-sweep. There an overflowing
    value is +inf and the argmax points at the offending node.
    """
    n, nb, nt = len(tree), len(specs), len(thetas)
    if n <= 1:
        return [[(0.0, tree.root)] * nt for _ in specs]
    p = specs[0].p
    q = specs[0].q
    star = np.arange(n) != tree.root
    term = np.full((n, nb), np.nan)  # NaN columns fail the range check
    base = np.full((nb, n), np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, w in enumerate(specs):
            dw = _weights(tree, w.beta)
            if dw is not None:
                pw, b = dw
                term[:, k] = b ** (-q / p) * pw ** (-q)
                base[k] = b * pw**p
        # S_t sums term along the path from just below the root to t
        x = np.zeros((n, nb, 2))
        x[..., 0] = term
        x[tree.root] = 0.0
        S = accumulate_down(tree, x, _kahan_add)[..., 0]
        St = np.ascontiguousarray(S.T)
        Sg = np.where(St > 0, St, 1.0)
        e = np.zeros((n, nb, nt, 2))
        for k in range(nb):
            for j, theta in enumerate(thetas):
                e[:, k, j, 0] = base[k] * Sg[k] ** ((p / q) * (1.0 - 1.0 / theta))
        e[tree.root] = 0.0  # the root never belongs to a shadow over Gamma*
        ok = (_in_range((term, S), (term, S), star)[:, None]
              & _in_range((e[..., 0],), (e[..., 0],), star))
        T = accumulate_up(tree, e, _kahan_add)[..., 0]  # shadow sums
        del e  # bounds the block's peak memory
        cand = np.empty((n, nb, nt))
        for k in range(nb):
            for j, theta in enumerate(thetas):
                Tkj = np.ascontiguousarray(T[:, k, j])
                cand[:, k, j] = np.where(
                    St[k] > 0, St[k] ** (1.0 / (theta * q)) * Tkj ** (1.0 / p), 0.0)
        ok &= _in_range((T, cand), (T,), star)
    arg = cand.argmax(axis=0)
    val = np.take_along_axis(cand, arg[None], axis=0)[0]
    out = []
    for k, w in enumerate(specs):
        row = [(float(v), int(a)) for v, a in zip(val[k], arg[k])]
        failed = np.flatnonzero(~ok[k])
        if len(failed):
            for j, res in zip(failed, _a_tree_log(tree, w, [thetas[j] for j in failed])):
                row[j] = res
        out.append(row)
    return out


def _log_weights(tree, beta):
    """(log nu, log b) = (beta log ell, n log ell); log omega = log nu."""
    logell = np.log(tree.ell)
    return beta * logell, tree.ndim * logell


def _exp(x: float) -> float:
    """exp(x), +inf where it passes the float range."""
    return math.inf if x > math.log(float(np.finfo(float).max)) else math.exp(x)


def _a_tree_log(tree, w, thetas) -> list:
    """Log-space evaluation: (value, argmax node) per theta of ``thetas``,
    with one log S down-sweep for all of them."""
    q = w.q
    lognu, logb = _log_weights(tree, w.beta)
    logterm = (-q / w.p) * logb - q * lognu
    logterm[tree.root] = -np.inf
    logS = accumulate_down(tree, logterm, np.logaddexp)
    out = []
    for theta in thetas:
        expo = (w.p / q) * (1.0 - 1.0 / theta)
        loge = logb + w.p * lognu + expo * np.where(
            np.isfinite(logS), logS, 0.0
        )
        loge[tree.root] = -np.inf
        logT = accumulate_up(tree, loge, np.logaddexp)
        with np.errstate(invalid="ignore"):
            logcand = np.where(
                np.isfinite(logS), logS / (theta * q) + logT / w.p, -np.inf
            )
        t_star = int(logcand.argmax())
        out.append((_exp(float(logcand[t_star])), t_star))
    return out


def _min_report(thetas, results) -> HardyReport:
    """The minimum over ``thetas`` of their (value, argmax node) results."""
    per = dict(zip(thetas, results))
    best_theta = min(per, key=lambda th: per[th][0])
    val, arg = per[best_theta]
    return HardyReport(per_theta=per, a_tree_min=val, best_theta=best_theta, argmax=arg)


def a_tree_min(tree: TreeCovering, w: WeightSpec) -> HardyReport:
    """Minimum of the tree constant over ``DEFAULT_THETA_GRID``."""
    return _min_report(DEFAULT_THETA_GRID, _a_tree_block(tree, [w], DEFAULT_THETA_GRID)[0])


def a_chain(chain: TreeCovering, w: WeightSpec) -> float:
    """Chain Hardy constant: sup over non-root t of prefix^(1/q) suffix^(1/p).

    The prefix sum runs over all s preceding-or-equal t including the root.
    A single node has empty Gamma* and reports the degenerate value 0. A
    chain whose terms or sums leave [1e-250, 1e250] is evaluated in log space.
    """
    if not chain.is_chain:
        raise StructureError("a_chain requires a chain (every node has at most one child)")
    n = len(chain)
    if n <= 1:
        return 0.0
    q = w.q
    # chain order: root first along tree.order
    order = chain.order
    dw = _weights(chain, w.beta)
    if dw is not None:
        pw, b = dw
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            term_pre = b ** (-q / w.p) * pw ** (-q)
            term_suf = b * pw**w.p
            pre = np.cumsum(term_pre[order])
            suf = np.cumsum(term_suf[order][::-1])[::-1]
            if _in_range((pre, suf), (term_pre, term_suf), np.ones(n, dtype=bool)):
                vals = pre[1:] ** (1.0 / q) * suf[1:] ** (1.0 / w.p)
                return float(vals.max())
    # the weights or the sums leave the float range
    lognu, logb = _log_weights(chain, w.beta)
    logpre = np.logaddexp.accumulate(((-q / w.p) * logb - q * lognu)[order])
    logsuf = np.logaddexp.accumulate((logb + w.p * lognu)[order][::-1])[::-1]
    return _exp(float((logpre[1:] / q + logsuf[1:] / w.p).max()))


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


def beta_sweep(dom, p: float, betas, levels) -> HardyReport:
    """A_tree_min per (beta, truncation level) with growth classification.

    Each tree is evaluated on blocks of consecutive betas, one block per
    down/up sweep pair (see ``_a_tree_block``). A block holds as many betas
    as keep n * len(block) * len(DEFAULT_THETA_GRID) within BETA_BLOCK_ENTRIES,
    and at least one. The best theta per beta is chosen as in
    ``a_tree_min``, and every power keeps a scalar exponent, so the rows
    are bitwise those of one ``a_tree_min`` call per (tree, beta).
    """
    levels = list(levels)
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ParameterError("levels must be strictly increasing")
    thetas = DEFAULT_THETA_GRID
    specs = [WeightSpec(beta=beta, p=p) for beta in betas]
    reps = {}  # level -> one HardyReport per spec
    for lv in levels:
        tree = build_tree(whitney_decompose(dom, lv))
        size = max(1, BETA_BLOCK_ENTRIES // (len(tree) * len(thetas)))
        reps[lv] = []
        for i in range(0, len(specs), size):
            results = _a_tree_block(tree, specs[i:i + size], thetas)
            reps[lv] += [_min_report(thetas, r) for r in results]
    rows = []
    classification = {}
    for k, w in enumerate(specs):
        beta = w.beta
        vals = [reps[lv][k].a_tree_min for lv in levels]
        cls, ratios = classify_growth(vals)
        classification[beta] = {"class": cls, "ratios": ratios, "values": vals}
        for lv in levels:
            rep = reps[lv][k]
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
