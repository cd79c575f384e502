import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from whardy import cli, decomp, fields, geometry, treecover, whitney


def run(args):
    return cli.main(args)


def test_no_command():
    assert run([]) == 1


def test_unknown_flag():
    assert run(["hardy", "--bogus"]) == 1


def test_whitney_and_report(tmp_path):
    out = tmp_path / "run"
    assert run(["whitney", "--domain", "unit-square", "--max-level", "4",
                "--out", str(out)]) == 0
    assert (out / "whitney.json").exists()
    summary = json.loads((out / "whitney_summary.json").read_text())
    assert summary["sandwich_lower"] and summary["sandwich_upper"]
    assert summary["config"]["version"]
    assert run(["report", "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert any(a["theorem"] == "whitney_properties" for a in rep["artifacts"])


def test_report_empty_dir(tmp_path):
    assert run(["report", "--out", str(tmp_path)]) == 1
    assert run(["report", "--out", str(tmp_path / "missing")]) == 1


@pytest.mark.parametrize("content, message", [
    ("{", "Expecting property name"),
    ("[1, 2]", "not a JSON object"),
    ('{"theorem": 5}', "not a JSON object with a string theorem"),
    (None, "Is a directory"),
], ids=["invalid-json", "list", "number-theorem", "directory"])
def test_report_on_a_bad_summary_exits_1_naming_it(tmp_path, capsys, content, message):
    assert run(["whitney", "--max-level", "4", "--out", str(tmp_path)]) == 0
    bad = tmp_path / "bad_summary.json"
    if content is None:
        bad.mkdir()
    else:
        bad.write_text(content)
    capsys.readouterr()
    assert run(["report", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: report: {bad}: ") and message in err[0]
    assert not (tmp_path / "report.json").exists()


def test_tree_subcommand(tmp_path):
    """K, C_emp and U_over_B equal their values recomputed from whitney.json
    and tree.json: K and |U_t| / |B_t| exactly, in integer units of the
    finest cube side, and the shadow counts of C_emp by walking up from
    every cube."""
    out = tmp_path / "t"
    argv = ["--domain", "koch", "--koch-level", "1", "--max-level", "5", "--out", str(out)]
    assert run(["whitney", *argv]) == 0
    assert run(["tree", *argv, "--lam", "1.3"]) == 0
    obj = json.loads((out / "tree_summary.json").read_text())
    wh = json.loads((out / "whitney.json").read_text())
    tree = json.loads((out / "tree.json").read_text())
    parent = tree["parent"]
    level = [c["level"] for c in wh["cubes"]]
    finest = max(level)
    side = [1 << (finest - k) for k in level]
    lo = [[i << (finest - k) for i in c["index"]] for c, k in zip(wh["cubes"], level)]
    hull_lo = [list(x) for x in lo]
    hull_hi = [[x + w for x in a] for a, w in zip(lo, side)]
    W = np.zeros((len(parent), finest + 1))
    for s in range(len(parent)):
        t = s
        while t >= 0:
            hull_lo[t] = [min(a, b) for a, b in zip(hull_lo[t], lo[s])]
            hull_hi[t] = [max(a, b + side[s]) for a, b in zip(hull_hi[t], lo[s])]
            W[t, level[s]] += 1
            t = parent[t]
    K = Fraction(1)
    for t, w in enumerate(side):  # the reach of the hull from the doubled centre, per axis
        reach = max(max(2 * b - (2 * x + w), (2 * x + w) - 2 * a)
                    for x, a, b in zip(lo[t], hull_lo[t], hull_hi[t]))
        K = max(K, Fraction(reach, w))
    assert obj["K"] == tree["K"] == float(K)
    i, k = np.arange(finest + 1), np.array(level)[:, None]
    assert obj["C_emp"] == float(np.where(W > 0, W * np.exp2(-(i - k) * 1.3), 0.0).max())
    # B_t on the lattice of 1/32 finest sides; U_t = (17/16) Q_t has side 34 w there
    unit = wh["frame"]["size"] * 2.0**-finest / 32
    origin = np.array(wh["frame"]["origin"])
    u_over_b = 0
    for t, b in enumerate(tree["B"]):
        if b is not None:
            c, hw = np.array(b["center"]), np.array(b["half_widths"])
            width = np.round((c + hw - origin) / unit) - np.round((c - hw - origin) / unit)
            u_over_b = max(u_over_b, Fraction((34 * side[t]) ** 2, int(width.prod())))
    assert obj["U_over_B"] == float(u_over_b)


def test_hardy_negative_grid(tmp_path):
    out = tmp_path / "h"
    assert run(["hardy", "--domain", "unit-square", "--p", "2",
                "--beta-grid", "-0.5:0.1:0.3", "--levels", "4,5",
                "--out", str(out)]) == 0
    lines = (out / "hardy_sweep.csv").read_text().splitlines()
    assert lines[0].startswith("beta,")
    assert len(lines) == 1 + 3 * 2  # betas -0.5, -0.2, 0.1 at two levels
    assert lines[1].startswith("-0.5,")


def test_hardy_overflowing_weights(tmp_path):
    # ell^-500 overflows the float range: the sweep runs in log space, silently
    out = tmp_path / "h"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["hardy", "--domain", "unit-square", "--levels", "4,5",
                    "--beta-grid", "-500:-499:1", "--out", str(out)]) == 0
    lines = (out / "hardy_sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 2
    assert all(line.endswith(",divergent") for line in lines[1:])


def test_decompose_subcommand(tmp_path, unit_square):
    """The ratio equals the one recomputed from decomposition.bin's pieces
    and the grid's values and distances, with math.fsum."""
    tree = treecover.build_tree(whitney.whitney_decompose(unit_square, 4))
    grid = decomp.decomposition_grid(tree)
    g = decomp.covered_mean_zero(grid, np.random.default_rng(0).standard_normal(grid.dims))
    cov = grid.covered
    for beta in (0.0, -0.3):
        out = tmp_path / repr(beta)
        assert run(["decompose", "--max-level", "4", "--beta", repr(beta), "--out", str(out)]) == 0
        obj = json.loads((out / "decompose_summary.json").read_text())
        assert obj["properties_ok"]
        data = (out / "decomposition.bin").read_bytes()
        end = data.index(b"\n")
        body = np.frombuffer(data, dtype="<i8", offset=end + 1)
        num = []
        for entry in json.loads(data[:end])["index"]:
            a, n = entry["offset"] // 8, entry["count"]
            cells, vals = body[a:a + n], body[a + n:a + 2 * n].view("<f8")
            num += (vals**2 * grid.dist.ravel()[cells] ** (-2 * beta)).tolist()
        den = (g.values[cov] ** 2 * grid.dist[cov] ** (-2 * beta)).tolist()
        assert obj["ratio"] == math.fsum(num) ** 0.5 / math.fsum(den) ** 0.5


def test_decompose_weights_only_the_covered_cells(tmp_path):
    """At beta = 200 and level 4, d^(-beta q) overflows only off the cover,
    where no weight is formed: no warning, and a finite ratio."""
    out = tmp_path / "d"
    assert run(["decompose", "--max-level", "4", "--beta", "200", "--out", str(out)]) == 0
    obj = json.loads((out / "decompose_summary.json").read_text())
    assert obj["properties_ok"] and math.isfinite(obj["ratio"])


def test_divergence_subcommand(tmp_path):
    out = tmp_path / "v"
    assert run(["divergence", "--max-level", "4", "--out", str(out)]) == 0
    assert (out / "velocity_x.bin").exists()
    obj = json.loads((out / "divergence_summary.json").read_text())
    assert obj["max_ratio"] > 0


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["decompose", "--max-level", "4", "--seed", "3",
                    "--out", str(out)]) == 0
    for name in ("decompose_summary.json", "decomposition.bin"):
        pa, pb = (a / name).read_bytes(), (b / name).read_bytes()
        # the embedded config carries the out directory; normalize it away
        if name.endswith(".json"):
            oa = json.loads(pa)
            ob = json.loads(pb)
            oa["config"].pop("out")
            ob["config"].pop("out")
            assert oa == ob
        else:
            assert pa == pb


def _child_env(**extra) -> dict:
    """This process's environment for a child interpreter that imports this
    checkout's ``src``, with ``extra`` set."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@pytest.mark.skipif((CPUS or 1) < 2, reason="needs 2 CPUs")
def test_byte_identical_reruns_across_blas_threads(tmp_path):
    # a BLAS reduction's last bits follow how OpenBLAS splits it across its
    # threads, so no artifact may take one
    argv = ["divergence", "--domain", "slit-square", "--max-level", "6", "--data", "collar"]
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "whardy.cli", *argv, "--out", str(tmp_path / threads)],
            env=_child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
    one, two = ((tmp_path / t / "divergence.jsonl").read_bytes() for t in ("1", "2"))
    assert one == two


def test_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_level = 4\nseed = 9\n")
    out = tmp_path / "c"
    assert run(["--config", str(cfg), "decompose", "--out", str(out)]) == 0
    obj = json.loads((out / "decompose_summary.json").read_text())
    assert obj["config"]["max_level"] == 4
    assert obj["config"]["seed"] == 9
    # flags override the file
    out2 = tmp_path / "c2"
    assert run(["--config", str(cfg), "decompose", "--max-level", "5",
                "--out", str(out2)]) == 0
    obj2 = json.loads((out2 / "decompose_summary.json").read_text())
    assert obj2["config"]["max_level"] == 5


def test_single_level_tree_notes_it(tmp_path, capsys):
    # every Whitney cube of Koch 2 truncated at level 5 is a level-5 cube
    args = ["--domain", "koch", "--koch-level", "2", "--max-level", "5"]
    assert run(["divergence", *args, "--data", "collar", "--out", str(tmp_path / "v")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["note: all 48 cubes at level 5, so the collar probe (the finest-level "
                   "cubes, mean-zeroed) is identically zero"]
    summary = json.loads((tmp_path / "v" / "divergence_summary.json").read_text())
    assert summary["degenerate"] == 1 and summary["max_ratio"] is None
    assert run(["decompose", *args, "--out", str(tmp_path / "d")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["note: all 48 cubes at level 5, so the decomposition has a single size class"]
    assert run(["divergence", "--domain", "koch", "--koch-level", "2", "--max-level", "6",
                "--data", "collar", "--out", str(tmp_path / "v6")]) == 0
    assert capsys.readouterr().err == ""


def test_poincare_subcommand(tmp_path):
    out = tmp_path / "p"
    assert run(["poincare", "--h", "0.02", "--count", "3", "--out", str(out)]) == 0
    lines = (out / "improved_poincare.jsonl").read_text().splitlines()
    assert len(lines) == 3


def test_empty_decomposition_exits_1(tmp_path, capsys):
    assert run(["divergence", "--domain", "koch", "--koch-level", "2", "--max-level", "4",
                "--data", "collar", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_config_value_of_wrong_type_exits_1(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("koch_level = 2.5\n")
    assert run(["--config", str(cfg), "tree", "--domain", "koch",
                "--out", str(tmp_path / "t")]) == 1
    assert "koch_level" in capsys.readouterr().err


def test_config_value_outside_choices_exits_1(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("data = bogus\n")
    assert run(["--config", str(cfg), "divergence", "--max-level", "4",
                "--out", str(tmp_path / "d")]) == 1
    assert "config data = 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_config_keys_that_are_not_flags_are_ignored(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("func = x\ncommand = hardy\nbogus = 1\n")
    out = tmp_path / "t"
    assert run(["--config", str(cfg), "tree", "--max-level", "4", "--out", str(out)]) == 0
    obj = json.loads((out / "tree_summary.json").read_text())
    assert obj["config"]["command"] == "tree"
    assert "bogus" not in obj["config"]


def test_abbreviated_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_level = 4\n")
    out = tmp_path / "w"
    assert run(["--config", str(cfg), "whitney", "--max", "6", "--out", str(out)]) == 0
    obj = json.loads((out / "whitney_summary.json").read_text())
    assert obj["config"]["max_level"] == 6
    assert obj["cubes"] == 304


def test_missing_config_exits_1(tmp_path, capsys):
    assert run(["--config", str(tmp_path / "missing.cfg"), "tree",
                "--out", str(tmp_path / "t")]) == 1
    assert "error:" in capsys.readouterr().err


def test_hardy_non_integer_levels_exits_1(tmp_path, capsys):
    assert run(["hardy", "--levels", "4,x", "--out", str(tmp_path / "h")]) == 1
    assert "error:" in capsys.readouterr().err


PRESETS = {
    "unit-square": ("unit-square",),
    "l-shape": ("l-shape",),
    "slit-square": ("slit-square",),
    "koch": ("koch", "--koch-level", "2"),
}
TREE_COMMANDS = {
    "whitney": ("whitney",),
    "tree": ("tree",),
    "decompose": ("decompose",),
    "dipole": ("divergence", "--data", "dipole"),
    "collar": ("divergence", "--data", "collar"),
}


@pytest.mark.parametrize("command", TREE_COMMANDS)
@pytest.mark.parametrize("preset", PRESETS)
def test_every_preset_with_every_tree_subcommand(tmp_path, preset, command):
    argv = [*TREE_COMMANDS[command], "--domain", *PRESETS[preset], "--max-level", "5"]
    assert run([*argv, "--out", str(tmp_path)]) == 0
    strict_json_artifacts(tmp_path)


GRID_COMMANDS = {
    "dimension": ("dimension", "--r-min", "0.02", "--r-max", "0.2", "--centers", "4",
                  "--num-ratios", "2"),
    "fefferman-stein": ("fefferman-stein", "--h", "0.03125"),
    "korn": ("korn", "--h", "0.03125", "--count", "2"),
    "poincare": ("poincare", "--h", "0.03125", "--count", "2"),
    "frac-poincare": ("frac-poincare", "--h", "0.03125", "--samples", "10000"),
    # at level 4 the slit square's cubes are disconnected and Koch 2 has none
    "hardy": ("hardy", "--levels", "5,6", "--beta-grid", "-0.5:0:0.25"),
}


@pytest.mark.parametrize("command", GRID_COMMANDS)
@pytest.mark.parametrize("preset", PRESETS)
def test_every_preset_with_every_grid_subcommand(tmp_path, capsys, preset, command):
    argv = [*GRID_COMMANDS[command], "--domain", *PRESETS[preset]]
    assert run([*argv, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    strict_json_artifacts(tmp_path)


# the largest power-of-two side within geometry.COORD_LIMIT
BIG_SIDE = 2.0**497
SCALED_FLAGS = ("--h", "--r-min", "--r-max")
# the two commands whose measured sides leave the float range at BIG_SIDE:
# Korn's cubic test fields, and the fractional left side's sum times h^2
OUT_OF_RANGE_AT_BIG_SIDE = {
    "korn": "the sampled function is not finite at the cell centre",
    "frac-poincare": "the L^2.0 norm with weight d^(0.0) leaves the float range",
}


def scaled_lengths(argv, factor):
    """argv with the values of every length flag multiplied by ``factor``."""
    return [repr(float(v) * factor) if k and argv[k - 1] in SCALED_FLAGS else v
            for k, v in enumerate(argv)]


def strict_json(path) -> list:
    """The values of a .json file, or of each line of a .jsonl file, read
    as standard JSON: NaN, Infinity and -Infinity raise."""
    def reject(token):
        raise ValueError(f"{path}: {token} is not JSON")

    text = path.read_text()
    return [json.loads(line, parse_constant=reject)
            for line in (text.splitlines() if path.suffix == ".jsonl" else [text])]


def strict_json_artifacts(out) -> None:
    """Every .json and .jsonl artifact under ``out`` parses as standard JSON."""
    paths = sorted(p for p in Path(out).rglob("*") if p.suffix in (".json", ".jsonl"))
    assert paths
    for path in paths:
        strict_json(path)


def null_paths(obj, path=()) -> set:
    """The key and index paths of the nulls and non-finite floats in a JSON object."""
    if isinstance(obj, dict):
        return set().union(*(null_paths(v, (*path, k)) for k, v in obj.items()))
    if isinstance(obj, list):
        return set().union(*(null_paths(v, (*path, k)) for k, v in enumerate(obj)))
    return {path} if obj is None or isinstance(obj, float) and not math.isfinite(obj) else set()


@pytest.mark.parametrize("command", [*TREE_COMMANDS, *GRID_COMMANDS])
@pytest.mark.parametrize("preset", ["unit-square", "koch"])
def test_every_compute_command_at_the_largest_side(tmp_path, capsys, preset, command):
    """At side 2^497, lengths scaled alike, a command exits 0 with a summary
    as finite as at side 1 (the Assouad fit's r_squared and residual_max
    are null at every side), or 1 with one error line; it raises no
    traceback and, as RuntimeWarnings fail the suite, issues no warning.
    Every JSON artifact at either side is standard JSON."""
    argv = ([*TREE_COMMANDS[command], "--max-level", "5"] if command in TREE_COMMANDS
            else GRID_COMMANDS[command])
    argv = [*argv, "--domain", *PRESETS[preset]]
    code = run([*scaled_lengths(argv, BIG_SIDE), "--side", repr(BIG_SIDE),
                "--out", str(tmp_path / "big")])
    err = capsys.readouterr().err.splitlines()
    assert run([*argv, "--out", str(tmp_path / "unit")]) == 0
    strict_json_artifacts(tmp_path)
    if command in OUT_OF_RANGE_AT_BIG_SIDE:
        assert code == 1 and len(err) == 1
        assert err[0].startswith("error: ") and OUT_OF_RANGE_AT_BIG_SIDE[command] in err[0]
        return
    assert code == 0 and all(line.startswith("note: ") for line in err)
    (big,) = (tmp_path / "big").glob("*_summary.json")
    unit = tmp_path / "unit" / big.name
    assert null_paths(strict_json(big)[0]) == null_paths(strict_json(unit)[0])


@pytest.mark.parametrize("preset", [("unit-square",), ("koch", "--koch-level", "2"),
                                    ("slit-square",)])
def test_tree_at_the_largest_side_equals_the_unit_side(tmp_path, preset):
    """The root centre comes from the centroid, whose sums of cubes are taken
    scaled: at side 2^497 the tree, K and the shadow statistics are those
    at side 1."""
    runs = []
    for side in (1.0, BIG_SIDE):
        out = tmp_path / repr(side)
        assert run(["tree", "--domain", *preset, "--max-level", "6", "--side", repr(side),
                    "--out", str(out)]) == 0
        tree = json.loads((out / "tree.json").read_text())
        summary = json.loads((out / "tree_summary.json").read_text())
        runs.append((tree["parent"], tree["root"], tree["K"], summary["C_emp"],
                     summary["U_over_B"]))
    assert runs[0] == runs[1]


def test_underflowing_weights_are_kept(tmp_path, capsys):
    """At beta = 400 the weights d^800 underflow to 0 near the boundary:
    that is a valid quadrature, not an error."""
    argv = ["poincare", "--beta", "400", "--h", "0.0625", "--out", str(tmp_path)]
    assert run(argv) == 0
    assert capsys.readouterr().err == ""
    assert len((tmp_path / "improved_poincare.jsonl").read_text().splitlines()) == 10


# each weight d^-145.6 is finite at h = 1/64, their sum is not
WEIGHTED_SUM_OVERFLOWS = [[*command, "--beta", "-72.8", "--h", "0.015625"] for command in
                          (["poincare"], ["korn"], ["fefferman-stein"],
                           ["frac-poincare", "--samples", "10000"])]


@pytest.mark.parametrize("argv", [
    ["fefferman-stein", "--sigmas", "abc", "--h", "0.1"],
    ["poincare", "--h", "nan", "--count", "1"],
    ["hardy", "--p", "nan"],
    ["hardy", "--p", "inf"],
    ["hardy", "--beta-grid", "0:1:1e-300"],
    *WEIGHTED_SUM_OVERFLOWS,
])
def test_bad_number_exits_1_with_one_error_line(tmp_path, capsys, argv):
    assert run([*argv, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("argv, message", [
    (["korn", "--beta", "nan", "--h", "0.1", "--count", "1"], "weight exponent must be finite"),
    (["korn", "--p", "inf", "--h", "0.1", "--count", "1"], "p must be finite and >= 1"),
    (["fefferman-stein", "--p", "inf", "--h", "0.1"], "p must be finite and >= 1"),
    (["poincare", "--beta=-inf", "--h", "0.1", "--count", "1"],
     "weight exponent must be finite"),
    (["frac-poincare", "--p", "nan", "--h", "0.1"], "p must be finite and >= 1"),
    (["divergence", "--beta", "nan", "--max-level", "4"], "beta must be finite"),
    (["divergence", "--q", "inf", "--max-level", "4"], "q must be finite and exceed 1"),
    (["whitney", "--max-level", "30"], "max_level must be <= 29"),
    (["tree", "--lam", "nan", "--max-level", "4"], "lambda must be finite and positive"),
    (["tree", "--lam", "inf", "--max-level", "4"], "lambda must be finite and positive"),
    (["dimension", "--r-min", "nan"], "r_min must be finite and positive"),
    (["dimension", "--r-max", "inf"], "need finite 0 < r_min < r_max"),
    (["fefferman-stein", "--scales", "0", "--h", "0.1"], "scales must be >= 1"),
    (["fefferman-stein", "--scales", "-3", "--h", "0.1"], "scales must be >= 1"),
    (["whitney", "--side", "1e-6", "--max-level", "25"],
     "half a side must exceed the boundary tolerance"),
    (["poincare", "--count", "0", "--h", "0.1"], "count must be >= 1, got 0"),
    (["poincare", "--count", "-2", "--h", "0.1"], "count must be >= 1, got -2"),
    (["korn", "--count", "0", "--h", "0.1"], "count must be >= 1, got 0"),
    (["korn", "--count", "-1", "--h", "0.1"], "count must be >= 1, got -1"),
    (["whitney", "--side", "1e155", "--max-level", "4"], "coordinates must lie within"),
    (["divergence", "--side", "1e155", "--max-level", "4"], "coordinates must lie within"),
    (["poincare", "--side", "1e200", "--h", "1e198"], "coordinates must lie within"),
    (["hardy", "--beta-grid", "0.3:-0.9:0.1"], "stop must not be below start"),
    (["decompose", "--q", "0", "--max-level", "4"], "q must be finite and exceed 1"),
    (["decompose", "--q=-1", "--max-level", "4"], "q must be finite and exceed 1"),
    (["decompose", "--q", "nan", "--max-level", "4"], "q must be finite and exceed 1"),
    (["decompose", "--beta", "nan", "--max-level", "4"], "beta must be finite"),
    (["decompose", "--seed", "-1", "--max-level", "4"], "seed must be a non-negative integer"),
    (["poincare", "--seed", "-1", "--h", "0.1"], "seed must be a non-negative integer"),
    (["korn", "--seed=-1", "--h", "0.1"], "seed must be a non-negative integer"),
    (["frac-poincare", "--seed", "-1", "--h", "0.1"], "seed must be a non-negative integer"),
    # d^(beta p) overflows at the smallest cell-centre distance, h/2
    (["poincare", "--beta", "-120", "--h", "0.0625", "--count", "1"],
     "weight exponent -240.0 overflows"),
    (["fefferman-stein", "--beta", "-200", "--h", "0.0625"], "weight exponent -400.0 overflows"),
    (["korn", "--beta", "-200", "--h", "0.0625", "--count", "1"],
     "weight exponent -400.0 overflows"),
    (["frac-poincare", "--beta", "-200", "--h", "0.0625", "--samples", "10000"],
     "weight exponent -400.0 overflows"),
    # the grid's weights are finite, a sampled delta^((beta + s) p) is not
    (["frac-poincare", "--beta", "-100", "--h", "0.0625", "--samples", "10000"],
     "weight exponent -199.0 overflows"),
    # d^(-beta q) overflows on a covered cell (at level 4 only off the cover)
    (["decompose", "--beta", "200", "--max-level", "5"], "weight exponent -400.0 overflows"),
    # |f|^p leaves the float range: sin 2x + y/2, mean-zeroed, lies within
    # (-1, 1) on this grid, and the other inputs pass 1 somewhere
    (["frac-poincare", "--p", "1e6", "--samples", "10000", "--h", "0.05"],
     "|f|^1000000.0 underflows to 0 at every nonzero |f|"),
    (["divergence", "--q", "1e6", "--max-level", "4"], "|f|^1000000.0 overflows"),
    (["poincare", "--p", "1e6", "--h", "0.05"], "|f|^1000000.0 overflows"),
    (["decompose", "--q", "1e6", "--max-level", "5"], "|f|^1000000.0 overflows"),
    (["hardy", "--p", "1e308", "--levels", "4,5"], "p = 1e+308 leaves the float range"),
    (["fefferman-stein", "--sigmas", "1e308", "--h", "0.05"],
     "sigma = 1e+308 scales the cubes' boxes beyond the float range"),
    (["whitney", "--side", "1e-200", "--max-level", "4"], "polygon area is 0"),
    *[(argv, "weight exponent -145.6 overflows: a term or sum weighted by d^(-145.6) leaves "
             "the float range") for argv in WEIGHTED_SUM_OVERFLOWS],
    # Korn's squared differences overflow; the report rejects the infinite sides
    (["korn", "--side", "1e100", "--h", "7.8125e97", "--count", "1"],
     "korn: lhs = inf, rhs = inf: the measured sides and their ratio must be finite"),
    (["korn", "--side", "1e140", "--h", "7.8125e137", "--count", "1"],
     "the sampled function is not finite at the cell centre"),
    (["frac-poincare", "--side", "1e100", "--h", "1.5625e98", "--samples", "10000"],
     "the L^2.0 norm with weight d^(0.0) leaves the float range: its sum times "
     "h^2 = 1.5625e+98^2 is not finite"),
])
def test_out_of_range_value_exits_1_naming_it(tmp_path, capsys, argv, message):
    assert run([*argv, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not list(tmp_path.iterdir())  # nothing written


@pytest.mark.parametrize("argv", [
    ["korn", "--beta", "nan", "--h", "0.1", "--count", "1"],
    ["decompose", "--q", "1e6", "--max-level", "4"],
    ["hardy", "--p", "1e308", "--levels", "4,5"],
])
def test_failing_command_leaves_no_out_directory(tmp_path, argv):
    """--out is made by the first artifact written, so a command that fails,
    even after its trees are built, leaves a new --out absent."""
    assert run([*argv, "--out", str(tmp_path / "new" / "out")]) == 1
    assert not list(tmp_path.iterdir())


def test_failed_invariant_writes_its_summary_and_exits_2(tmp_path, capsys, monkeypatch):
    box_dimension = cli.dimension.box_dimension
    monkeypatch.setattr(cli.dimension, "box_dimension",
                        lambda *a: replace(box_dimension(*a), value=5.0))
    argv = ["dimension", "--num-scales", "4", "--num-ratios", "2", "--centers", "2"]
    assert run([*argv, "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "dimension: monotonicity box <= assouad + 0.1 FAILED\n"
    summary = json.loads((tmp_path / "dimension_summary.json").read_text())
    assert summary["box"]["value"] == 5.0 and summary["config"]["command"] == "dimension"
    assert (tmp_path / "assouad.csv").exists()


@pytest.mark.parametrize("argv", [
    ["--domain", "slit-square", "--h", "0.5"],
    ["--domain", "l-shape", "--h", "0.25", "--samples", "10000"],
])
def test_frac_poincare_with_unresolved_pairs_is_degenerate(tmp_path, argv):
    """At these h every sampled y stays in its x cell, so the sampled
    seminorm is 0 while the left side is not."""
    assert run(["frac-poincare", *argv, "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "fractional_poincare.jsonl").read_text())
    assert rep["lhs"] > 0 and rep["rhs"] == 0.0 and rep["ratio"] is None
    assert rep["degenerate"] == "resolution insufficient: sampled fractional seminorm vanished"
    summary = json.loads((tmp_path / "fractional_poincare_summary.json").read_text())
    assert summary["degenerate"] == 1 and summary["max_ratio"] is None


def test_koch_level_above_the_bound_exits_1_unbuilt(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(geometry, "_koch_vertices", lambda *a: pytest.fail("domain built"))
    argv = ["whitney", "--domain", "koch", "--koch-level", "10", "--out", str(tmp_path)]
    assert run(argv) == 1
    assert "koch_prefractal level must be an integer from 0 to 9" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["poincare", "--h", "1e-5"], "needs a grid of 1e+10 cells"),
    (["korn", "--h", "1e-9"], "needs a grid of 1e+18 cells"),
    (["dimension", "--r-min", "1e-9"], "needs 1.6e+10 boundary samples"),
])
def test_oversized_request_exits_1_unallocated(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.setattr(fields, "_all_cell_centers", lambda *a: pytest.fail("grid allocated"))
    monkeypatch.setattr(geometry, "sample_boundary", lambda *a: pytest.fail("samples allocated"))
    assert run([*argv, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not list(tmp_path.iterdir())


def test_negative_seed_from_config_exits_1_unbuilt(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.whitney, "whitney_decompose", lambda *a: pytest.fail("tree built"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = -3\n")
    assert run(["--config", str(cfg), "decompose", "--max-level", "4",
                "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: config seed = '-3': seed must be a non-negative integer, got -3"]
    assert not (tmp_path / "d").exists()


def test_divergence_checks_q_before_any_build(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.whitney, "whitney_decompose", lambda *a: pytest.fail("tree built"))
    assert run(["divergence", "--q", "0.5", "--out", str(tmp_path / "d")]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: q must be finite and exceed 1, got 0.5"]
    assert not (tmp_path / "d").exists()


def test_non_finite_beta_from_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta = nan\n")
    assert run(["--config", str(cfg), "korn", "--h", "0.1", "--count", "1",
                "--out", str(tmp_path / "k")]) == 1
    assert "weight exponent must be finite" in capsys.readouterr().err


STARTUP_GUARD = """
import sys
from whardy import cli

out = sys.argv[1]
runs = [
    ["whitney", "--max-level", "4"],
    ["tree", "--max-level", "4"],
    ["hardy", "--levels", "4,5", "--beta-grid", "-0.5:0:0.5"],
    ["decompose", "--max-level", "5"],
    ["dimension", "--num-scales", "4", "--num-ratios", "2", "--centers", "2"],
]
for k, argv in enumerate(runs):
    assert cli.main([*argv, "--out", f"{out}/{k}"]) == 0, argv
# at level 4 the slit square's cubes are disconnected: the error sizes them
assert cli.main(["tree", "--domain", "slit-square", "--max-level", "4",
                 "--out", f"{out}/split"]) == 1
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, f"scipy loaded before any divergence solve: {loaded[:5]}"
assert cli.main(["divergence", "--max-level", "4", "--out", f"{out}/div"]) == 0
assert "scipy.sparse.linalg" in sys.modules, "the divergence solve loaded no scipy"
"""


def test_scipy_loads_only_for_divergence(tmp_path):
    # a fresh interpreter: this test process has scipy loaded already
    proc = subprocess.run([sys.executable, "-c", STARTUP_GUARD, str(tmp_path)],
                          env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _trig_family_oracle(grid, count, seed):
    """The trig family evaluated per cell on the full grid."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        ph = rng.uniform(0, 2 * math.pi, (3, 3, 2))
        assert (ph != 0.0).all()

        def fn(x, y, a=a, b=b, ph=ph):
            val = np.zeros_like(x)
            for i in range(3):
                for j in range(3):
                    val += a[i, j] * np.cos(i * x + j * y + ph[i, j, 0])
                    val += b[i, j] * np.sin(i * x - j * y + ph[i, j, 1])
            return val

        out.append(fields.sample_function(grid, fn).values)
    return out


@pytest.mark.parametrize("preset", ["unit_square", "l_shape", "slit_square", "koch_prefractal"])
@pytest.mark.parametrize("h", [1 / 24, 1 / 61])
def test_trig_family_on_axes_matches_the_per_cell_formula(preset, h):
    dom = geometry.make_domain(preset, level=2)
    grid = fields.make_grid(dom, h)
    for seed in range(10):
        got = [f.values for _, f in cli._trig_family(grid, 10, seed)]
        want = _trig_family_oracle(grid, 10, seed)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
