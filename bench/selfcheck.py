"""Self-tests of the benchmark's checks: each must reject a corrupted input.

Run from the repository root:

    python3 bench/selfcheck.py

Small real artifacts are produced with the whardy CLI under
``.bench_out/selfcheck``; each test first shows the check accepts them and
then that it rejects one deliberate corruption. Exits 0 when every test
holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracing  # noqa: E402
from whardy import cli  # noqa: E402

OUT = Path(".bench_out") / "selfcheck"


def whardy(*argv) -> Path:
    out = OUT / "-".join(a.lstrip("-") for a in argv[1:] if not a.startswith("--"))
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([*argv, "--out", str(out)])
    if rc != 0:
        raise RuntimeError(f"whardy {' '.join(argv)} exited {rc}")
    return out


def square_tree(level):
    args = ("--domain", "unit-square", "--max-level", str(level))
    d = whardy("whitney", *args)
    whardy("tree", *args)
    wh = checks.load_whitney(d / "whitney.json")
    tree = checks.load_tree(d / "tree.json")
    summary = json.loads((d / "tree_summary.json").read_text())
    return wh, tree, summary


def test_overlapping_transfer_boxes():
    wh, tree, _ = square_tree(4)
    lo, hi, _ = checks.finest_spans(wh)
    boxes = checks.transfer_boxes32(tree, wh)
    assert checks.check_transfer_boxes(boxes, tree["parent"], 32 * lo, 32 * hi) == []
    a, b = np.nonzero(tree["parent"] >= 0)[0][:2]
    bad = boxes.copy()
    shift = (boxes[b, 1] - boxes[b, 0]) // 2
    bad[b] = boxes[a] + shift  # b's box now straddles a's
    fails = checks.check_transfer_boxes(bad, tree["parent"], 32 * lo, 32 * hi)
    assert any("overlap" in m for m in fails), fails


def test_k_one_ulp_off():
    wh, tree, summary = square_tree(5)
    lo, hi, _ = checks.finest_spans(wh)
    pairs = checks.touch_pairs(lo, hi)
    assert checks.check_tree(wh, tree, summary, pairs) == []
    bumped = dict(summary, K=math.nextafter(summary["K"], math.inf))
    fails = checks.check_tree(wh, tree, bumped, pairs)
    assert any(m.startswith("K reported") for m in fails), fails


def test_perturbed_face_velocity():
    args = ("--domain", "koch", "--koch-level", "2", "--max-level", "6")
    d = whardy("divergence", *args, "--data", "collar")
    wh = checks.load_whitney(whardy("whitney", *args) / "whitney.json")
    hx, ux = checks.load_grid_bin(d / "velocity_x.bin")
    _, uy = checks.load_grid_bin(d / "velocity_y.bin")
    assign, _ = checks.paint_cells(wh, hx, hx["mask"])
    probe = checks.collar_probe(assign, wh["levels"])
    fx, fy = checks.faces_from_centered(ux, uy)
    assert checks.check_divergence(fx, fy, hx["h"], probe, assign >= 0) == []
    i, j = np.unravel_index(np.abs(fx).argmax(), fx.shape)
    fx[i, j] *= 1.0 + 1e-6
    assert checks.check_divergence(fx, fy, hx["h"], probe, assign >= 0) != []


def test_a_tree_off_by_1e8():
    wh, tree, _ = square_tree(5)
    M = checks.path_matrix(tree["parent"], tree["root"])
    ell = np.exp2(-wh["levels"].astype(float))
    beta = -0.3
    value = min(checks.a_tree_enumerated(M, ell, beta, 2.0, th, tree["root"])
                for th in checks.THETA_GRID)
    args = (tree["parent"], wh["levels"], tree["root"], 2.0)
    assert checks.check_a_tree(*args, [(beta, value)]) == []
    assert checks.check_a_tree(*args, [(beta, value * (1 + 1e-8))]) != []


def test_four_node_path_is_sqrt6():
    assert abs(checks.chain_constant([1.0] * 4, [1.0] * 4, 2.0) - math.sqrt(6)) <= 1e-12


def test_equal_neighbors_u_over_b():
    # two level-1 cubes of a size-2 frame sharing the face x = 1
    levels = np.array([1, 1])
    lo = np.array([[0, 0], [1, 0]])
    hi = lo + 1
    face = 1  # face length in finest-side units
    box = np.array([[[-1, -1], [-1, -1]],
                    [[32 - 1 * face, 8 * face], [32 + 1 * face, 24 * face]]])
    assert checks.check_transfer_boxes(box, np.array([-1, 0]), 32 * lo, 32 * hi) == []
    world = [None, {"center": [1.0, 0.5], "half_widths": [1 / 32, 1 / 4]}]
    assert checks.u_over_b(levels, 2.0, world) == 36.125


def test_face_box_is_not_counted_as_shrunk():
    from whardy import geometry, treecover, whitney

    dom = geometry.make_domain("unit_square")
    dec = whitney.whitney_decompose(dom, 4)
    tree = treecover.build_tree(dec, treecover.root_center(dec, geometry.centroid(dom)))
    assert tracing.shrunk_box_count(tree) == 0
    lo, hi = tree.boxes32[1]
    tree.boxes32[1] = (lo, (hi[0] - 1, hi[1]))
    assert tracing.shrunk_box_count(tree) == 1


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok    {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL  {name}: {exc}")
    print(f"{len(tests) - failed}/{len(tests)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
