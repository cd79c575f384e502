"""Command-line laboratory: domains, decompositions, dimensions, Hardy sweeps,
inequality measurements, and a report aggregator.

Every artifact embeds the resolved configuration and package version, and
identical configurations produce byte-identical outputs (fixed seeds, sorted
keys, no timestamps). Exit codes: 0 success, 1 usage error, 2 an invariant
suite failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, decomp, dimension, divergence, fields, geometry, hardy
from . import inequalities as ineq
from . import treecover, whitney
from .errors import ConnectivityError, EmptyDecompositionError, ParameterError

DOMAIN_CHOICES = ("unit-square", "l-shape", "slit-square", "koch")


def _domain_from_args(args) -> geometry.PolygonalDomain:
    if args.domain == "koch":
        return geometry.make_domain("koch_prefractal", level=args.koch_level, side=args.side)
    return geometry.make_domain(args.domain.replace("-", "_"), side=args.side)


def _resolved_config(args) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k not in ("func",) and v is not None}
    cfg["version"] = __version__
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in sorted(cfg.items())}


# ---------------------------------------------------------------------------
# the one output path: every artifact is written here, after the command's
# work, so a command that fails leaves no --out behind


def _artifact(args, name: str) -> Path:
    """The path of artifact ``name`` under --out, created at the first write."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _write_csv(args, name: str, header, rows) -> None:
    with open(_artifact(args, name), "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(rows)


def _json(obj) -> str:
    """The one rule for the JSON text of every artifact: sorted keys, and
    null for every float that is not finite, as JSON has no NaN or
    infinity (``allow_nan=False`` raises on any left over)."""
    def finite(v):
        if isinstance(v, float):
            return v if math.isfinite(v) else None
        if isinstance(v, dict):
            return {k: finite(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [finite(x) for x in v]
        return v

    return json.dumps(finite(obj), sort_keys=True, allow_nan=False)


def _finish(args, name: str, payload: dict, status: str, failure: str = "") -> int:
    """Write ``name`` (a summary) with the resolved configuration; print
    ``status`` and return 0, or, on a ``failure``, its FAILED line and 2."""
    _artifact(args, name).write_text(_json({**payload, "config": _resolved_config(args)}) + "\n")
    if failure:
        print(f"{failure} FAILED", file=sys.stderr)
        return 2
    print(status)
    return 0


def _parse_list(text: str, kind, flag: str, what: str) -> list:
    """The comma-separated values of ``flag``, each read by ``kind``."""
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError:
        raise ParameterError(f"bad {flag} {text!r}: expected {what}") from None


def _dipole(grid):
    def bump(x, y, cx, cy, r):
        rr = ((x - cx) ** 2 + (y - cy) ** 2) / r**2
        out = np.zeros_like(x)
        m = rr < 1
        out[m] = np.exp(-1.0 / (1.0 - rr[m]))
        return out

    lo, hi = grid.domain.bounding_box()
    cx, cy = (lo + hi) / 2.0
    span = float(min(hi - lo))
    f = fields.sample_function(
        grid,
        lambda x, y: bump(x, y, cx - 0.2 * span, cy, 0.15 * span)
        - bump(x, y, cx + 0.2 * span, cy, 0.15 * span),
    )
    return decomp.covered_mean_zero(grid, f.values)


def _note_single_level(tree, consequence: str) -> None:
    """One stderr note when every cube sits at one level."""
    if tree.level.min() == tree.level.max():
        print(f"note: all {len(tree)} cubes at level {int(tree.level[0])}, so {consequence}",
              file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def cmd_whitney(args) -> int:
    dom = _domain_from_args(args)
    dec = whitney.whitney_decompose(dom, args.max_level)
    sides = dec.sides
    ok_lower = bool(np.all(dec.dist_sq >= 2.0 * sides * sides))
    ok_upper = bool(np.all(dec.dist <= 4.0 * sides * math.sqrt(2.0) + 1e-12))
    ptr, idx = dec.neighbors  # sides are powers of two: a ratio in [1/4, 4] is a level gap <= 2
    ratios_ok = bool(np.all(np.abs(dec.levels[idx] - np.repeat(dec.levels, np.diff(ptr))) <= 2))
    _artifact(args, "whitney.json").write_text(whitney.decomposition_to_json(dec))
    return _finish(
        args,
        "whitney_summary.json",
        {
            "theorem": "whitney_properties",
            "cubes": len(dec),
            "collar_width": dec.collar_width,
            "sandwich_lower": ok_lower,
            "sandwich_upper": ok_upper,
            "neighbor_ratios_ok": ratios_ok,
        },
        f"whitney: {len(dec)} cubes, invariants ok",
        "" if ok_lower and ok_upper and ratios_ok else "whitney: invariant suite",
    )


def cmd_tree(args) -> int:
    dom = _domain_from_args(args)
    tree = treecover.build_tree(whitney.whitney_decompose(dom, args.max_level))
    stats = treecover.shadow_stats(tree)
    c_emp = treecover.verify_shadow_lemma(stats, args.lam)
    max_p = int(stats.P.max())
    ok = max_p <= math.ceil(tree.K) ** tree.ndim
    _artifact(args, "tree.json").write_text(treecover.tree_to_json(tree))
    return _finish(
        args,
        "tree_summary.json",
        {
            "theorem": "tree_covering",
            "K": tree.K,
            "lambda": args.lam,
            "C_emp": c_emp,
            "max_chain_count": max_p,
            "chain_bound_ok": ok,
            "U_over_B": tree.ratio_u_over_b(),
        },
        f"tree: K={tree.K:.3f}, C_emp(lambda={args.lam})={c_emp:.3f}",
        "" if ok else "tree: chain bound",
    )


def cmd_dimension(args) -> int:
    dom = _domain_from_args(args)
    r_min, r_max = args.r_min, args.r_max
    target = dimension.boundary_target(dom, r_min)
    box = dimension.box_dimension(target, r_min, r_max, args.num_scales)
    ratios = [1.0 / 2.0**k for k in range(4, 4 + args.num_ratios)]
    lo, hi = dom.bounding_box()
    extent = float(max(hi - lo))
    Rg = [0.6 * extent, 0.3 * extent]
    assouad, rows = dimension.assouad_dimension(target, ratios, Rg, centers=args.centers)
    _write_csv(args, "assouad.csv", ["center_x", "center_y", "R", "r", "N_r", "slope"], rows)
    return _finish(
        args,
        "dimension_summary.json",
        {
            "theorem": "dimension_estimates",
            "box": asdict(box),
            "assouad": asdict(assouad),
        },
        f"dimension: box={box.value:.3f}, assouad={assouad.value:.3f}",
        "" if box.value <= assouad.value + 0.1 else "dimension: monotonicity box <= assouad + 0.1",
    )


def cmd_hardy(args) -> int:
    dom = _domain_from_args(args)
    betas = hardy.parse_grid(args.beta_grid)
    levels = _parse_list(args.levels, int, "--levels", "integers")
    rows, classification = hardy.beta_sweep(dom, args.p, betas, levels)
    _write_csv(args, "hardy_sweep.csv",
               ["beta", "p", "theta", "level", "A_tree", "argmax_node", "classification"], rows)
    return _finish(
        args,
        "hardy_summary.json",
        {
            "theorem": "hardy_tree_constant",
            "classification": {str(b): info for b, info in classification.items()},
        },
        f"hardy: swept {len(betas)} betas over levels {levels}",
    )


def cmd_decompose(args) -> int:
    decomp.check_q_beta(args.q, args.beta)  # before the build, not after it
    dom = _domain_from_args(args)
    tree = treecover.build_tree(whitney.whitney_decompose(dom, args.max_level))
    _note_single_level(tree, "the decomposition has a single size class")
    grid = decomp.decomposition_grid(tree)
    rng = np.random.default_rng(args.seed)
    g = decomp.covered_mean_zero(grid, rng.standard_normal(grid.dims))
    vals = g.values
    cov = grid.covered
    d = decomp.c_decompose(tree, g)
    rec_err = float(np.abs(d.reconstruct() - vals)[cov].max())
    max_int = max(abs(d.node_integral(t)) for t in range(len(tree)))
    ratio = decomp.decomposition_ratio(d, args.q, args.beta)
    _artifact(args, "decomposition.bin").write_bytes(decomp.dump_decomposition(d))
    linf = float(np.abs(vals).max())
    l1 = float(np.abs(vals[cov]).sum()) * grid.h**2
    ok = rec_err <= 1e-12 * linf and max_int <= 1e-10 * l1
    return _finish(
        args,
        "decompose_summary.json",
        {
            "theorem": "c_orthogonal_decomposition",
            "reconstruction_error": rec_err,
            "max_node_integral": max_int,
            "ratio": ratio,
            "uncovered_cells": d.uncovered_count,
            "properties_ok": ok,
        },
        f"decompose: ratio={ratio:.4f}, properties ok",
        "" if ok else "decompose: definition properties",
    )


def _angle(i, x, j, y, ph):
    """i x + j y + ph on the axes x (nx, 1) and y (1, ny), bit for bit as on
    the full grid: a zero coefficient's product is +-0, which leaves the
    other product unchanged and, as ph != 0, the sum, so it is dropped and
    the term is evaluated on one axis."""
    if i == 0:
        return j * y + ph
    if j == 0:
        return i * x + ph
    return i * x + j * y + ph


def _trig_family(grid, count, seed):
    """Yield the (label, function) pairs of the trig family one at a time,
    so a caller holds one test function, not ``count``."""
    x, y = fields.cell_center_xy(grid.h, grid.origin, *np.indices(grid.dims, sparse=True))
    rng = np.random.default_rng(seed)
    for k in range(count):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        ph = rng.uniform(0, 2 * math.pi, (3, 3, 2))
        val = np.zeros(grid.dims)
        for i in range(3):
            for j in range(3):
                val += a[i, j] * np.cos(_angle(i, x, j, y, ph[i, j, 0]))
                val += b[i, j] * np.sin(_angle(i, x, -j, y, ph[i, j, 1]))
        yield f"trig_{k}", grid.with_values(np.where(grid.mask, val, 0.0))


def _check_count(count) -> None:
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count!r}")


def cmd_poincare(args) -> int:
    _check_count(args.count)
    dom = _domain_from_args(args)
    grid = fields.make_grid(dom, args.h)
    reports = [ineq.improved_poincare_ratio(f, args.p, args.beta, label=label)
               for label, f in _trig_family(grid, args.count, args.seed)]
    return _emit_reports(args, reports, "improved_poincare")


def cmd_frac_poincare(args) -> int:
    dom = _domain_from_args(args)
    grid = fields.make_grid(dom, args.h)
    u = fields.sample_function(grid, lambda x, y: np.sin(2 * x) + 0.5 * y)
    rep = ineq.fractional_poincare_ratio(
        u, args.p, args.beta, args.s, args.tau, args.samples, seed=args.seed
    )
    return _emit_reports(args, [rep], "fractional_poincare")


def cmd_korn(args) -> int:
    _check_count(args.count)
    dom = _domain_from_args(args)
    grid = fields.make_grid(dom, args.h)
    rng = np.random.default_rng(args.seed)
    reports = []
    for k in range(args.count):
        cu = rng.standard_normal((4, 4))
        cv = rng.standard_normal((4, 4))

        def poly(x, y, c):
            val = np.zeros_like(x)
            for i in range(4):
                for j in range(4):
                    if i + j <= 3:
                        val += c[i, j] * x**i * y**j
            return val

        u = (
            fields.sample_function(grid, lambda x, y: poly(x, y, cu)),
            fields.sample_function(grid, lambda x, y: poly(x, y, cv)),
        )
        reports.append(ineq.korn_ratio(u, args.p, args.beta, label=f"poly_{k}"))
    return _emit_reports(args, reports, "korn")


def cmd_fefferman_stein(args) -> int:
    sigmas = _parse_list(args.sigmas, float, "--sigmas", "numbers")
    dom = _domain_from_args(args)
    grid = fields.make_grid(dom, args.h)
    freq = args.checker_frequency
    f = fields.sample_function(
        grid, lambda x, y: np.sign(np.sin(freq * math.pi * x) * np.sin(freq * math.pi * y))
    )
    reports = []
    for sigma in sigmas:
        reports.append(
            ineq.fefferman_stein_ratio(f, args.p, args.beta, sigma, scales=args.scales,
                                       label="checkerboard")
        )
    return _emit_reports(args, reports, "fefferman_stein")


def cmd_divergence(args) -> int:
    decomp.check_q_beta(args.q, args.beta)  # before the build, not after it
    dom = _domain_from_args(args)
    tree = treecover.build_tree(whitney.whitney_decompose(dom, args.max_level))
    grid = decomp.decomposition_grid(tree)
    if args.data == "collar":
        _note_single_level(tree, "the collar probe (the finest-level cubes, mean-zeroed) "
                                 "is identically zero")
        f = decomp.collar_probe(tree, grid)
    else:
        f = _dipole(grid)
    mac, rep = divergence.solve_divergence(tree, f, args.q, args.beta)
    for name, u in zip(("velocity_x.bin", "velocity_y.bin"), mac.cell_centered()):
        _artifact(args, name).write_bytes(fields.dump_grid(u))
    return _emit_reports(args, [rep], "divergence")


def _emit_reports(args, reports, name) -> int:
    _artifact(args, f"{name}.jsonl").write_text("".join(_json(asdict(r)) + "\n" for r in reports))
    _write_csv(args, f"{name}.csv",
               ["inequality", "domain", "params", "h", "lhs", "rhs", "ratio", "degenerate"],
               ([r.inequality, r.domain, _json(r.params),
                 r.h, r.lhs, r.rhs, r.ratio, r.degenerate or ""] for r in reports))
    finite = [r.ratio for r in reports if r.degenerate is None]
    return _finish(
        args,
        f"{name}_summary.json",
        {
            "theorem": name,
            "count": len(reports),
            "max_ratio": max(finite) if finite else None,
            "degenerate": sum(1 for r in reports if r.degenerate),
        },
        f"{name}: {len(reports)} reports, max ratio "
        f"{max(finite) if finite else float('nan'):.4g}",
    )


def _theorem(path: Path) -> str:
    """The theorem a summary artifact names, else its file stem."""
    try:
        obj = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # unreadable, or no JSON text
        raise ParameterError(f"report: {path}: {getattr(exc, 'strerror', None) or exc}") from None
    theorem = obj.get("theorem", path.stem) if isinstance(obj, dict) else None
    if not isinstance(theorem, str):
        raise ParameterError(f"report: {path}: not a JSON object with a string theorem")
    return theorem


def cmd_report(args) -> int:
    out = Path(args.out)
    if not out.is_dir():
        raise ParameterError(f"report: {out} is not a directory")
    summaries = sorted(out.glob("*_summary.json"))
    if not summaries:
        raise ParameterError("report: no *_summary.json artifacts found; "
                             "run other subcommands first")
    rows = [(_theorem(path), path.name) for path in summaries]
    width = max(len(t) for t, _ in rows)
    return _finish(args, "report.json",
                   {"artifacts": [{"theorem": t, "file": f} for t, f in rows]},
                   "\n".join(f"{t:<{width}}  {f}" for t, f in rows))


# ---------------------------------------------------------------------------
# parser


def _read_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParameterError(f"cannot read config {path}: {exc.strerror}") from None
    cfg = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"bad config line: {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        cfg[key.replace("-", "_")] = val
    return cfg


def _command_index(argv_list):
    """The index of the subcommand in argv, or None: the first token that
    is neither an option nor the value of ``--config`` (or of an
    abbreviation of it, which argparse accepts), as argparse reads them."""
    i = 0
    while i < len(argv_list):
        tok = argv_list[i]
        if not tok.startswith("-"):
            return i
        i += 2 if len(tok) > 2 and "--config".startswith(tok) else 1
    return None


def _with_config(ap, args, argv_list):
    """Re-parse argv with the config file's entries as ``--key=value`` flags
    right after the subcommand: argparse checks them like flags, and the
    command line, later in argv, wins. Keys that are not flags of the
    subcommand are ignored."""
    flags = []
    for key, val in _read_config(args.config).items():
        if key in ("command", "config", "func") or not hasattr(args, key):
            continue
        flag = f"--{key.replace('_', '-')}={val}"
        try:
            ap.parse_known_args([args.command, flag])
        except (_UsageError, ParameterError) as exc:
            raise ParameterError(f"config {key} = {val!r}: {exc}") from None
        flags.append(flag)
    k = _command_index(argv_list)
    return ap.parse_known_args([*argv_list[:k + 1], *flags, *argv_list[k + 1:]])[0]


def _domain_name(value: str) -> str:
    return value.replace("_", "-")


class _Seed(argparse.Action):
    """``--seed``, an int that numpy's generators take: a negative one raises
    ParameterError while parsing, from a flag or a config entry alike."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 0:
            raise ParameterError(f"seed must be a non-negative integer, got {value}")
        setattr(namespace, self.dest, value)


# the options more than one subcommand takes, each declared once
_SHARED = {
    "--domain": dict(type=_domain_name, choices=DOMAIN_CHOICES, default="unit-square"),
    "--koch-level": dict(type=int, default=2),
    "--side": dict(type=float, default=1.0),
    "--out": dict(default="whardy_out"),
    "--seed": dict(type=int, default=0, action=_Seed),
    "--max-level": dict(type=int, default=6),
    "--p": dict(type=float, default=2.0),
    "--beta": dict(type=float, default=0.0),
    "--q": dict(type=float, default=2.0),
    "--h": dict(type=float, default=1 / 128),
    "--count": dict(type=int, default=10),
}
_COMMON = ("--domain", "--koch-level", "--side", "--out", "--seed")

# subcommand -> (help line, options in help order); an option is a flag of
# _SHARED or a (flag, argparse keywords) pair of the subcommand's own. The
# handler is cmd_<name>, looked up when the parser is built, so a rebound
# module name (a tracing wrapper) is the one that runs.
COMMANDS = {
    "whitney": ("Whitney decomposition + invariants", (*_COMMON, "--max-level")),
    "tree": ("tree covering, K, shadow-lemma constant",
             (*_COMMON, "--max-level", ("--lam", dict(type=float, default=1.37)))),
    "dimension": ("box/Assouad dimension of the boundary",
                  (*_COMMON,
                   ("--r-min", dict(type=float, default=4e-3)),
                   ("--r-max", dict(type=float, default=6.4e-2)),
                   ("--num-scales", dict(type=int, default=6)),
                   ("--num-ratios", dict(type=int, default=4)),
                   ("--centers", dict(type=int, default=12)))),
    "hardy": ("A_tree beta sweep with classification",
              (*_COMMON, "--p",
               ("--beta-grid", dict(default="-0.9:0.3:0.1", help="start:stop:step")),
               ("--levels", dict(default="4,5,6")))),
    "decompose": ("C-orthogonal decomposition of a random g",
                  (*_COMMON, "--max-level", "--q", "--beta")),
    "poincare": ("improved Poincare ratios, trig family",
                 (*_COMMON, "--p", "--beta", "--h", "--count")),
    "frac-poincare": ("fractional Poincare Monte Carlo",
                      (*_COMMON, "--p", "--beta",
                       ("--s", dict(type=float, default=0.5)),
                       ("--tau", dict(type=float, default=0.5)),
                       ("--samples", dict(type=int, default=100_000)),
                       ("--h", dict(_SHARED["--h"], default=1 / 64)))),
    "korn": ("Korn ratios on random polynomial fields",
             (*_COMMON, "--p", "--beta", "--h", "--count")),
    "fefferman-stein": ("local Fefferman-Stein ratios",
                        (*_COMMON, "--p", "--beta",
                         ("--sigmas", dict(default="1,2,4")),
                         ("--scales", dict(type=int, default=8)),
                         "--h",
                         ("--checker-frequency", dict(type=int, default=8)))),
    "divergence": ("solve div u = f and measure the ratio",
                   (*_COMMON, "--max-level", "--q", "--beta",
                    ("--data", dict(choices=("dipole", "collar"), default="dipole")))),
    "report": ("aggregate prior outputs into one table", ("--out",)),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; exit code 2 is reserved for failed invariants
    def error(self, message):
        raise _UsageError(message)


def build_parser(command) -> argparse.ArgumentParser:
    """The parser with every subcommand, so help, usage and invalid-choice
    errors name them all, and with options and a handler for ``command``'s
    subparser only (none when it is None or not a subcommand)."""
    ap = _Parser(prog="whardy", description=__doc__)
    ap.add_argument("--config", help="flat key = value file; flags override it")
    sub = ap.add_subparsers(dest="command")
    for name, (help_line, options) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_line)
        if name != command:
            continue
        for opt in options:
            flag, kwargs = (opt, _SHARED[opt]) if isinstance(opt, str) else opt
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(func=globals()[f"cmd_{name.replace('-', '_')}"])
    return ap


def _merge_grid_flags(argv_list):
    """Join '--beta-grid -0.9:0.3:0.1' so the negative start survives argparse."""
    out = []
    skip = False
    for k, tok in enumerate(argv_list):
        if skip:
            skip = False
            continue
        if tok == "--beta-grid" and k + 1 < len(argv_list):
            out.append(f"--beta-grid={argv_list[k + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv_list = _merge_grid_flags(list(sys.argv[1:] if argv is None else argv))
    k = _command_index(argv_list)
    ap = build_parser(None if k is None else argv_list[k])
    try:
        args, remaining = ap.parse_known_args(argv_list)
        if remaining:
            ap.print_usage(sys.stderr)
            print(f"unknown arguments: {remaining}", file=sys.stderr)
            return 1
        if args.command is None:
            ap.print_usage(sys.stderr)
            return 1
        if args.config:
            args = _with_config(ap, args, argv_list)
        return args.func(args)
    except _UsageError as exc:
        ap.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParameterError, EmptyDecompositionError, ConnectivityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
