import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from whardy import cli, geometry


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


def test_tree_subcommand(tmp_path):
    out = tmp_path / "t"
    assert run(["tree", "--domain", "koch", "--koch-level", "1",
                "--max-level", "5", "--out", str(out), "--lam", "1.3"]) == 0
    obj = json.loads((out / "tree_summary.json").read_text())
    assert obj["K"] > 0 and obj["C_emp"] > 0


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


def test_decompose_subcommand(tmp_path):
    out = tmp_path / "d"
    assert run(["decompose", "--max-level", "4", "--out", str(out)]) == 0
    obj = json.loads((out / "decompose_summary.json").read_text())
    assert obj["properties_ok"]


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


@pytest.mark.parametrize("argv", [
    ["fefferman-stein", "--sigmas", "abc", "--h", "0.1"],
    ["poincare", "--h", "nan", "--count", "1"],
    ["hardy", "--p", "nan"],
    ["hardy", "--p", "inf"],
    ["hardy", "--beta-grid", "0:1:1e-300"],
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
])
def test_out_of_range_value_exits_1_naming_it(tmp_path, capsys, argv, message):
    assert run([*argv, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not list(tmp_path.iterdir())  # nothing written


def test_koch_level_above_the_bound_exits_1_unbuilt(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(geometry, "_koch_vertices", lambda *a: pytest.fail("domain built"))
    argv = ["whitney", "--domain", "koch", "--koch-level", "10", "--out", str(tmp_path)]
    assert run(argv) == 1
    assert "koch_prefractal level must be an integer from 0 to 9" in capsys.readouterr().err


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
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, f"scipy loaded before any divergence solve: {loaded[:5]}"
assert cli.main(["divergence", "--max-level", "4", "--out", f"{out}/div"]) == 0
assert "scipy.sparse.linalg" in sys.modules, "the divergence solve loaded no scipy"
"""


def test_scipy_loads_only_for_divergence(tmp_path):
    # a fresh interpreter: this test process has scipy loaded already
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", STARTUP_GUARD, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
