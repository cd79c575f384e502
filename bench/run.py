"""whardy benchmark: refinement ladders of `whardy` subcommands, timed end to end.

Usage (from the repository root):

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload is a closed loop with one client: one process runs its ladder
of subcommands through ``whardy.cli.main``, back to back, with the argv a
user would type. A pass is one ladder plus the workload's known-fault
operations, which run outside the timed region. Passes repeat until
``--seconds`` have elapsed and at least three passes are done. After the
last pass the artifacts are checked by the independent code in
``bench/checks.py``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` a warm-up pass is followed by rounds of a traced pass
and an untraced one written to the same paths, and the last line reports
the per-layer metrics of ``bench/tracing.py``. Outputs go to
``.bench_out/`` in the working directory. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = Path(".bench_out")
SETUP_SAMPLES = 9
MIN_PASSES = 3  # a median over three passes sets aside one cold or disturbed pass
DEFAULT_SEED = 1
DEFAULT_SECONDS = 20

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("slowest_call_s", "s"), ("peak_rss_mb", "MB")]


@dataclass
class Workload:
    name: str
    ladder: list  # argv lists, timed
    faults: list = field(default_factory=list)  # (argv, expected stderr text), untimed
    u_over_b: list = field(default_factory=list)  # tree dirs whose U_over_B is compared


def _argv(cmd, out, seed, *args):
    return [cmd, *args, "--seed", str(seed), "--out", str(out)]


KOCH_TREE_LEVELS = (6, 7, 8)
HARDY_LEVELS = (6, 7, 8)
HARDY_CHECKED_LEVELS = (6, 7)
HARDY_BETAS = "-0.9:0.3:0.05"
HARDY_BETA_COUNT = 25
# (label, domain args, max level, also run decompose)
DIVERGENCE_RUNGS = (
    ("koch2-L5", ("--domain", "koch", "--koch-level", "2"), 5, True),
    ("koch2-L6", ("--domain", "koch", "--koch-level", "2"), 6, True),
    ("slit-L6", ("--domain", "slit-square"), 6, False),
)
FS_H = 1 / 64
POINCARE_H = 1 / 256


def workload(name: str, seed: int) -> Workload:
    out = OUT / name
    if name == "koch-tree":
        ladder, dirs = [], []
        for L in KOCH_TREE_LEVELS:
            d = out / f"L{L}"
            dom = ("--domain", "koch", "--koch-level", "3", "--max-level", str(L))
            ladder += [_argv("whitney", d, seed, *dom), _argv("tree", d, seed, *dom)]
            dirs.append(d)
        return Workload(name, ladder, u_over_b=dirs)
    if name == "hardy-sweep":
        levels = ",".join(str(v) for v in HARDY_LEVELS)
        return Workload(name, [_argv("hardy", out, seed, "--domain", "unit-square", "--p", "2",
                                     "--beta-grid", HARDY_BETAS, "--levels", levels)])
    if name == "divergence-solve":
        ladder = []
        for label, dom, L, decompose in DIVERGENCE_RUNGS:
            args = (*dom, "--max-level", str(L))
            if decompose:
                ladder.append(_argv("decompose", out / label, seed, *args))
            ladder.append(_argv("divergence", out / label, seed, *args, "--data", "collar"))
        # _dipole removes the mean over the grid mask, not over the covered cells
        fault = (["divergence", "--domain", "l-shape", "--data", "dipole",
                  "--out", str(out / "fault")], "input is not mean-zero")
        return Workload(name, ladder, faults=[fault])
    if name == "boundary-grid":
        return Workload(name, [
            _argv("dimension", out / "dim-square", seed, "--domain", "unit-square"),
            _argv("dimension", out / "dim-koch4", seed, "--domain", "koch", "--koch-level", "4",
                  "--r-min", repr(3.0**-4), "--r-max", repr(3.0**-1), "--num-scales", "7",
                  "--num-ratios", "2", "--centers", "16"),
            _argv("fefferman-stein", out / "fs-koch3", seed, "--domain", "koch",
                  "--koch-level", "3", "--h", repr(FS_H)),
            _argv("korn", out / "korn-l", seed, "--domain", "l-shape"),
            _argv("poincare", out / "poincare-slit", seed, "--domain", "slit-square",
                  "--h", repr(POINCARE_H)),
            _argv("frac-poincare", out / "frac-square", seed, "--domain", "unit-square",
                  "--samples", "1000000"),
        ])
    raise ValueError(name)


WORKLOADS = ("koch-tree", "hardy-sweep", "divergence-solve", "boundary-grid")


# ---------------------------------------------------------------------------
# passes


def _quiet_cli(argv) -> tuple[int, str]:
    from whardy import cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


def _u_over_b_holds(d: Path) -> bool:
    """The reported U_over_B equals max |U_t| / |B_t| recomputed from the artifacts."""
    import checks

    wh = checks.load_whitney(d / "whitney.json")
    tree = checks.load_tree(d / "tree.json")
    reported = json.loads((d / "tree_summary.json").read_text())["U_over_B"]
    true = checks.u_over_b(wh["levels"], wh["size"], tree["B"])
    return abs(reported - true) <= 1e-9 * true


def _digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@dataclass
class Pass:
    times: list
    attempted: int
    failed: int
    problems: list
    digest: str

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_pass(wl: Workload, tracer=None) -> Pass:
    from whardy import cli

    times, problems, codes = [], [], []
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        with tracer if tracer is not None else contextlib.nullcontext():
            for argv in wl.ladder:
                t0 = time.perf_counter()
                rc = cli.main(argv)
                times.append(time.perf_counter() - t0)
                codes.append(rc)
    failed = 0
    for argv, rc in zip(wl.ladder, codes):
        if rc != 0:
            failed += 1
            problems.append(f"exit {rc}: whardy {' '.join(argv)}")
    for argv, expected in wl.faults:
        rc, err = _quiet_cli(argv)
        if rc != 0:
            failed += 1
            if expected not in err:
                problems.append(f"exit {rc} without {expected!r}: whardy {' '.join(argv)}")
    for d in wl.u_over_b:
        failed += not _u_over_b_holds(d)
    attempted = len(wl.ladder) + len(wl.faults) + len(wl.u_over_b)
    return Pass(times, attempted, failed, problems, _digest(OUT / wl.name))


def measure_setup() -> float:
    """Seconds from spawning a fresh interpreter until whardy.cli is imported."""
    code = ("import sys, time; sys.path.insert(0, 'src'); import whardy.cli; "
            "print(repr(time.monotonic()))")
    env = {k: v for k, v in os.environ.items() if k != "WHARDY_THREADS"}
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - t0


# ---------------------------------------------------------------------------
# checks after the timed region


def _reports(path, count, fails) -> list:
    import checks

    reports = checks.load_jsonl(path)
    if len(reports) != count:
        fails.append(f"{path} holds {len(reports)} reports, expected {count}")
    return reports


def check_workload(name: str, seed: int) -> list:
    import numpy as np

    import checks
    from whardy import geometry

    out = OUT / name
    fails = []
    if name == "koch-tree":
        verts = geometry.make_domain("koch_prefractal", level=3).vertices
        rng = np.random.default_rng(seed)
        for L in KOCH_TREE_LEVELS:
            d = out / f"L{L}"
            wh = checks.load_whitney(d / "whitney.json")
            tree = checks.load_tree(d / "tree.json")
            summary = json.loads((d / "tree_summary.json").read_text())
            lo, hi, _ = checks.finest_spans(wh)
            pairs = checks.touch_pairs(lo, hi)
            fails += [f"L{L}: {m}" for m in checks.check_whitney(wh, verts, pairs, rng)]
            fails += [f"L{L}: {m}" for m in checks.check_tree(wh, tree, summary, pairs)]
    elif name == "hardy-sweep":
        with open(out / "hardy_sweep.csv", newline="") as fh:
            rows = [{k: (v if k == "classification" else float(v)) for k, v in r.items()}
                    for r in csv.DictReader(fh)]
        summary = json.loads((out / "hardy_summary.json").read_text())
        expected = len(HARDY_LEVELS) * len(summary["classification"])
        if len(rows) != expected or len(summary["classification"]) != HARDY_BETA_COUNT:
            fails.append(f"sweep has {len(rows)} rows, expected {expected} "
                         f"over {HARDY_BETA_COUNT} betas")
        fails += checks.check_hardy(rows, summary["classification"])
        for L in HARDY_CHECKED_LEVELS:
            d = out / "check" / f"L{L}"
            args = ("--domain", "unit-square", "--max-level", str(L), "--out", str(d))
            for cmd in ("whitney", "tree"):
                rc, err = _quiet_cli([cmd, *args])
                if rc != 0:
                    return fails + [f"{cmd} for the check failed: {err.strip()}"]
            wh = checks.load_whitney(d / "whitney.json")
            tree = checks.load_tree(d / "tree.json")
            at_level = [(r["beta"], r["A_tree"]) for r in rows if r["level"] == L]
            fails += [f"L{L}: {m}" for m in checks.check_a_tree(
                tree["parent"], wh["levels"], tree["root"], 2.0, at_level)]
    elif name == "divergence-solve":
        for label, dom, L, decompose in DIVERGENCE_RUNGS:
            d = out / label
            cubes = out / "check" / label
            rc, err = _quiet_cli(["whitney", *dom, "--max-level", str(L), "--out", str(cubes)])
            if rc != 0:
                return fails + [f"whitney for the check failed: {err.strip()}"]
            wh = checks.load_whitney(cubes / "whitney.json")
            hx, ux = checks.load_grid_bin(d / "velocity_x.bin")
            hy, uy = checks.load_grid_bin(d / "velocity_y.bin")
            assign, offset = checks.paint_cells(wh, hx, hx["mask"])
            probe = checks.collar_probe(assign, wh["levels"])
            fx, fy = checks.faces_from_centered(ux, uy)
            fails += [f"{label}: {m}" for m in checks.check_divergence(
                fx, fy, hx["h"], probe, assign >= 0)]
            if decompose:
                header, pieces = checks.load_decomposition_bin(d / "decomposition.bin")
                if header["h"] != hx["h"] or header["dims"] != hx["dims"]:
                    fails.append(f"{label}: decomposition grid differs from the solver grid")
                    continue
                g = checks.seeded_field(assign, seed)
                fails += [f"{label}: {m}" for m in checks.check_decomposition(
                    pieces, g, hx["h"], wh, offset)]
    elif name == "boundary-grid":
        for sub, target, tol in (("dim-square", 1.0, 0.1), ("dim-koch4", checks.KOCH_DIM, 0.08)):
            summ = json.loads((out / sub / "dimension_summary.json").read_text())
            for kind in ("box", "assouad"):
                val = summ[kind]["value"]
                if not abs(val - target) <= tol:
                    fails.append(f"{sub}: {kind} dimension {val:.4f}, "
                                 f"expected {target:.4f} +- {tol}")
        p, beta = 2.0, 0.0
        grid = checks.Grid(geometry.make_domain("l_shape").vertices, 1 / 128)
        reports = _reports(out / "korn-l" / "korn.jsonl", 10, fails)
        for rep, (fu, fv) in zip(reports, checks.korn_fields(10, seed)):
            if not rep["ratio"] >= 1 - 1e-9:
                fails.append(f"korn ratio {rep['ratio']!r} below 1")
            fails += checks.check_lhs("korn", rep["lhs"], checks.korn_lhs(grid, fu, fv, p, beta))
        grid = checks.Grid(geometry.make_domain("slit_square").vertices, POINCARE_H)
        reports = _reports(out / "poincare-slit" / "improved_poincare.jsonl", 10, fails)
        for rep, fn in zip(reports, checks.trig_family(10, seed)):
            f0 = grid.mean_zero(grid.sample(fn), beta * p)
            fails += checks.check_lhs("poincare", rep["lhs"], grid.norm(f0, p, beta * p))
        grid = checks.Grid(geometry.make_domain("koch_prefractal", level=3).vertices, FS_H)
        f0 = grid.mean_zero(grid.sample(
            lambda x, y: np.sign(np.sin(8 * math.pi * x) * np.sin(8 * math.pi * y))), beta * p)
        lhs = grid.norm(f0, p, beta * p)
        for rep in _reports(out / "fs-koch3" / "fefferman_stein.jsonl", 3, fails):
            fails += checks.check_lhs("fefferman-stein", rep["lhs"], lhs)
        grid = checks.Grid(geometry.make_domain("unit_square").vertices, 1 / 64)
        u0 = grid.mean_zero(grid.sample(lambda x, y: np.sin(2 * x) + 0.5 * y), beta * p)
        for rep in _reports(out / "frac-square" / "fractional_poincare.jsonl", 1, fails):
            fails += checks.check_lhs("frac-poincare", rep["lhs"], grid.norm(u0, p, beta * p))
    return fails


# ---------------------------------------------------------------------------
# one workload


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import tracing

    wl = workload(name, seed)
    shutil.rmtree(OUT / name, ignore_errors=True)
    setup = []

    # A traced run pairs each traced pass with an untraced one after a warm-up
    # pass, so the overhead compares passes that are both warm.
    warm = [run_pass(wl)] if traced else []
    passes, traced_passes, tracers = [], [], []
    start = time.perf_counter()
    while True:
        if traced:
            tracers.append(tracing.Tracer())
            traced_passes.append(run_pass(wl, tracers[-1]))
        else:
            # set-up samples are spread between passes so that one slow spell
            # of the machine does not decide their median
            setup += [measure_setup() for _ in range(1 if passes else 2)]
        passes.append(run_pass(wl))
        if time.perf_counter() - start >= seconds and (traced or len(passes) >= MIN_PASSES):
            break
    while not traced and len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    everything = warm + passes + traced_passes
    problems = [m for p in everything for m in p.problems]
    if len({p.digest for p in everything}) != 1:
        problems.append("artifacts differ between passes (traced vs untraced, or reruns)")
    try:
        problems += check_workload(name, seed)
    except (OSError, ValueError, KeyError) as exc:  # missing or malformed artifacts
        problems.append(f"checks could not read the artifacts: {exc!r}")

    if traced:
        tracing.write_spans(OUT / f"trace-{name}.jsonl", tracers)
        rows = [dict(tracing.layer_metrics(t.spans, t.counts),
                     **{"trace.overhead_s": tp.wall - up.wall})
                for t, tp, up in zip(tracers, traced_passes, passes)]
        metrics = {m: {"value": statistics.median(row[m] for row in rows), "unit": unit}
                   for m, unit, _ in tracing.PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p.wall for p in passes),
            "slowest_call_s": statistics.median(max(p.times) for p in passes),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
    for m in problems:
        print(f"CHECK FAILED [{name}]: {m}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(p.attempted for p in everything),
        "failed": sum(p.failed for p in everything),
        "metrics": metrics,
        "passes": len(everything),
    }


def _print_table(name, result):
    print(f"== {name}: {result['passes']} passes, attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for metric, mv in result["metrics"].items():
        print(f"  {metric:34s} {mv['value']:.6g} {mv['unit']}")


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited {proc.returncode}")
        res = json.loads(lines[-1])
        for line in lines[:-1]:
            print(line)
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for metric, mv in res["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = mv
    return merged


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "whardy" / "cli.py").is_file():
        print(f"bench: no whardy sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    os.environ.pop("WHARDY_THREADS", None)  # the program's default: one worker
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import whardy.cli

    if not Path(whardy.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"bench: imported whardy from {whardy.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        _print_table(args.workload, result)
        del result["passes"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
