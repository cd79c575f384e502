"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 2 and 4 contain clauses whose stated tolerances are unattainable at
the stated truncation levels (slow geometric transients of the truncated
sums; measured trajectories and analysis in the assertion messages). Those
clauses are asserted as stated and fail honestly; every other clause passes.
"""

import math
import time

import numpy as np

from conftest import collar_probe, expanded_boxes, oracle_a_tree, random_mean_zero
from whardy import decomp as dc
from whardy import dimension as dim
from whardy import divergence as dv
from whardy import fields as F
from whardy import geometry as geo
from whardy import hardy as hd
from whardy import inequalities as iq
from whardy import treecover as tc
from whardy import whitney as wt

PRESETS = [
    ("unit_square", {}),
    ("l_shape", {}),
    ("slit_square", {}),
    ("koch_prefractal", {"level": 2}),
]


def _report(num, name, clauses, elapsed, budget):
    failed = [label for label, ok in clauses if not ok]
    status = "PASS" if not failed and elapsed < budget else "FAIL"
    detail = f"{elapsed:.1f}s"
    if failed:
        detail += "; failed: " + ", ".join(failed)
    print(f"ACCEPTANCE {num} ({name}): {status} [{detail}]")
    assert elapsed < budget, f"runtime budget exceeded: {elapsed:.1f}s >= {budget}s"
    assert not failed, f"criterion {num} clauses failed: {failed}"


def test_criterion_1_whitney_suite():
    t0 = time.time()
    clauses = []
    for preset, kw in PRESETS:
        dom = geo.make_domain(preset, **kw)
        dec = wt.whitney_decompose(dom, 7)
        sides = dec.sides
        lower = bool(np.all(dec.dist_sq >= 2.0 * sides * sides))
        upper = bool(np.all(dec.dist <= 4.0 * sides * math.sqrt(2.0) + 1e-12))
        clauses.append((f"{preset}: sandwich", lower and upper))
        ratios_ok = True
        for t, nb in enumerate(wt._csr_lists(dec.neighbors)):
            for s in nb:
                if round(float(sides[s] / sides[t]), 12) not in {0.25, 0.5, 1.0, 2.0, 4.0}:
                    ratios_ok = False
        clauses.append((f"{preset}: neighbor ratios", ratios_ok))
        lo, hi = dom.bounding_box()
        rng = np.random.default_rng(0)
        pts = rng.uniform(lo, hi, size=(600, 2))
        counts = np.zeros(len(pts), dtype=int)
        for b_lo, b_hi in expanded_boxes(dec):
            sel = (
                (pts[:, 0] >= b_lo[0]) & (pts[:, 0] <= b_hi[0])
                & (pts[:, 1] >= b_lo[1]) & (pts[:, 1] <= b_hi[1])
            )
            counts[sel] += 1
        clauses.append((f"{preset}: overlap <= 144", counts.max() <= 144))
    _report(1, "whitney suite", clauses, time.time() - t0, 30.0)


def test_criterion_2_tree_suite(koch3):
    t0 = time.time()
    clauses = []
    for preset, kw in PRESETS:
        dom = geo.make_domain(preset, **kw)
        dec = wt.whitney_decompose(dom, 6)
        tree = tc.build_tree(dec, tc.root_center(dec, geo.centroid(dom)))
        clauses.append((f"{preset}: K finite", math.isfinite(tree.K)))
        L = int(dec.levels.max())
        lo, hi = dec.spans(L)
        h_lo = tc.accumulate_up(tree, lo, np.minimum)
        h_hi = tc.accumulate_up(tree, hi, np.maximum)
        Kn, Kd = tree.K_frac.numerator, tree.K_frac.denominator
        contained = True
        for t in range(len(tree)):
            w = int(hi[t, 0] - lo[t, 0])
            ctr2 = lo[t] + hi[t]
            reach = int(np.maximum(2 * h_hi[t] - ctr2, ctr2 - 2 * h_lo[t]).max())
            if reach * Kd > Kn * w:
                contained = False
        clauses.append((f"{preset}: shadows in K Q_t", contained))
        stats = tc.shadow_stats(tree)
        clauses.append(
            (f"{preset}: max chain count <= ceil(K)^2",
             int(stats.P.max()) <= math.ceil(tree.K) ** 2)
        )

    c137, c100 = [], []
    center = geo.centroid(koch3)
    for lv in (5, 6, 7, 8, 9):
        dec = wt.whitney_decompose(koch3, lv)
        stats = tc.shadow_stats(tc.build_tree(dec, tc.root_center(dec, center)))
        c137.append(tc.verify_shadow_lemma(stats, 1.37))
        c100.append(tc.verify_shadow_lemma(stats, 1.0))
    var_57 = max(c137[:3]) / min(c137[:3]) - 1.0
    var_79 = max(c137[2:]) / min(c137[2:]) - 1.0
    clauses.append(("shadow-count constant grows at lambda=1.0",
                    all(b > a for a, b in zip(c100[:3], c100[1:3]))))
    # deeper window where the constant has settled (0% variation measured)
    clauses.append(("lambda=1.37 stable over levels 7-9", var_79 < 0.25))
    clauses.append(
        (
            "lambda=1.37 varies < 25% over levels 5-7 "
            f"(measured {100 * var_57:.0f}%: values {[round(v, 1) for v in c137[:3]]}; "
            "levels 5-7 sit in the pre-asymptotic packing regime, the constant "
            f"settles exactly from level 7 on: {[round(v, 1) for v in c137[2:]]})",
            var_57 < 0.25,
        )
    )
    _report(2, "tree suite", clauses, time.time() - t0, 60.0)


def test_criterion_3_dimension_suite(unit_square):
    t0 = time.time()
    clauses = []
    sq = dim.boundary_target(unit_square, 2e-3)
    box = dim.box_dimension(sq, 4e-3, 6.4e-2, 6)
    aso = dim.assouad_dimension(sq, [1 / 16, 1 / 32, 1 / 64, 1 / 128], [0.6, 0.3], 12)
    clauses.append((f"square box {box.value:.3f} = 1 +- 0.10", abs(box.value - 1) <= 0.10))
    clauses.append((f"square assouad {aso.value:.3f} = 1 +- 0.10", abs(aso.value - 1) <= 0.10))

    eset = dim.inverse_reciprocal_set(10_000)
    ebox = dim.box_dimension(eset, 1e-5, 1e-2, 8)
    easo = dim.assouad_dimension(
        eset, [1 / 16, 1 / 32, 1 / 64, 1 / 128], np.geomspace(1e-3, 3e-2, 8), 12
    )
    clauses.append((f"reciprocals box {ebox.value:.3f} = 0.5 +- 0.07",
                    abs(ebox.value - 0.5) <= 0.07))
    clauses.append((f"reciprocals assouad {easo.value:.3f} = 1 +- 0.10",
                    abs(easo.value - 1.0) <= 0.10))

    k4 = dim.boundary_target(geo.make_domain("koch_prefractal", level=4), 3.0**-4)
    kbox = dim.box_dimension(k4, 3.0**-4, 3.0**-1, 7)
    kaso = dim.assouad_dimension(k4, [1 / 3, 1 / 9, 1 / 27], [0.45, 0.3], 16)
    target = math.log(4) / math.log(3)
    clauses.append((f"koch4 box {kbox.value:.3f} = 1.262 +- 0.08",
                    abs(kbox.value - target) <= 0.08))
    clauses.append((f"koch4 assouad {kaso.value:.3f} = 1.262 +- 0.08",
                    abs(kaso.value - target) <= 0.08))
    _report(3, "dimension suite", clauses, time.time() - t0, 120.0)


def test_criterion_4_hardy_suite(unit_square, square_trees):
    t0 = time.time()
    clauses = []
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 61))
        parent = np.full(n, -1)
        for t in range(1, n):
            parent[t] = rng.integers(0, t)
        ell = 2.0 ** (-rng.integers(0, 6, size=n).astype(float))
        beta = rng.uniform(-0.8, 0.5)
        p = rng.uniform(1.3, 3.0)
        theta = rng.uniform(1.05, 4.0)
        tree = tc.synthetic_tree(parent, ell)
        got, _ = hd.a_tree(tree, hd.WeightSpec(beta, p), theta)
        want, _ = oracle_a_tree(parent, ell, beta, p, theta)
        worst = max(worst, abs(got - want) / want)
    clauses.append((f"a_tree oracle, 50 trees (worst rel {worst:.1e})", worst <= 1e-10))

    path4 = tc.synthetic_tree([-1, 0, 1, 2], [1.0, 1.0, 1.0, 1.0])
    v = hd.a_chain(path4, hd.WeightSpec(0.0, 2.0))
    clauses.append(("a_chain 4-path = sqrt(6)", abs(v - math.sqrt(6)) <= 1e-12))

    w = hd.WeightSpec(0.0, 2.0)
    ch5 = tc.build_cube_chain(5, 2)
    ac5 = hd.a_chain(ch5, w)
    formula = len(ch5) ** (1 / w.q) * len(ch5) ** (1 / w.p)
    clauses.append((f"snake m=5: A_chain {ac5:.2f} <= 25", ac5 <= 25 + 1e-12))
    clauses.append(("snake m=5: count bound equals m^n", abs(formula - 25.0) <= 1e-12))
    rel_ok = True
    for chain in (path4, tc.build_cube_chain(4, 2), ch5):
        ac = hd.a_chain(chain, w)
        for theta in hd.DEFAULT_THETA_GRID:
            at, _ = hd.a_tree(chain, w, theta)
            if at > theta ** (1 / w.p) * ac + 1e-12:
                rel_ok = False
    clauses.append(("A_tree <= theta^(1/p) A_chain on all chain tests", rel_ok))

    vals = {}
    for beta in (-0.3, -0.7):
        wspec = hd.WeightSpec(beta, 2.0)
        vals[beta] = [hd.a_tree_min(square_trees[lv], wspec).a_tree_min
                      for lv in (5, 6, 7)]
    r3 = [b / a for a, b in zip(vals[-0.3], vals[-0.3][1:])]
    r7 = [b / a for a, b in zip(vals[-0.7], vals[-0.7][1:])]
    clauses.append((f"rho > 1.15 for beta=-0.7 (measured {[round(r, 3) for r in r7]})",
                    all(r > 1.15 for r in r7)))
    clauses.append(
        (
            f"rho < 1.05 for beta=-0.3 over levels 5-7 (measured {[round(r, 3) for r in r3]}; "
            "the convergent tail sheds mass like 2^(-j/3) per level, so the raw "
            "ratio reaches 1.05 only near level 11; increments do shrink: "
            f"{[round(b - a, 3) for a, b in zip(vals[-0.3], vals[-0.3][1:])]})",
            all(r < 1.05 for r in r3),
        )
    )
    _report(4, "hardy suite", clauses, time.time() - t0, 120.0)


def test_criterion_5_decomposition_suite(square_decs):
    t0 = time.time()
    clauses = []
    for preset, kw in PRESETS:
        dom = geo.make_domain(preset, **kw)
        dec = wt.whitney_decompose(dom, 5)
        tree = tc.build_tree(dec, tc.root_center(dec, geo.centroid(dom)))
        grid = dc.decomposition_grid(tree)
        cov = grid.covered
        ok = True
        for seed in range(20):
            g = random_mean_zero(tree, grid, seed)
            d = dc.c_decompose(tree, g)
            rec_err = float(np.abs(d.reconstruct() - g.values)[cov].max())
            l1 = float(np.abs(g.values[cov]).sum()) * grid.h**2
            linf = float(np.abs(g.values).max())
            if rec_err > 1e-12 * linf:
                ok = False
            if max(abs(d.node_integral(t)) for t in range(len(tree))) > 1e-10 * l1:
                ok = False
        clauses.append((f"{preset}: definition properties x20", ok))

    trees = {lv: tc.build_tree(square_decs[lv], (0.5, 0.5)) for lv in (5, 6, 7)}
    means = []
    for lv in (5, 6, 7):
        grid = dc.decomposition_grid(trees[lv])
        ratios = [
            dc.decomposition_ratio(
                dc.c_decompose(trees[lv], random_mean_zero(trees[lv], grid, 100 + s)),
                2.0, -0.3,
            )
            for s in range(5)
        ]
        means.append(float(np.mean(ratios)))
    center = float(np.mean(means))
    clauses.append(
        (f"beta=-0.3 stable +-10% (seed-averaged {[round(v, 3) for v in means]})",
         max(means) <= 1.1 * center and min(means) >= 0.9 * center)
    )
    below = []
    for lv in (5, 6, 7):
        grid = dc.decomposition_grid(trees[lv])
        d = dc.c_decompose(trees[lv], collar_probe(trees[lv], grid))
        below.append(dc.decomposition_ratio(d, 2.0, -0.7))
    clauses.append(
        (f"beta=-0.7 increasing on the boundary probe ({[round(v, 2) for v in below]})",
         below[0] < below[1] < below[2])
    )
    _report(5, "decomposition suite", clauses, time.time() - t0, 120.0)


def test_criterion_6_inequality_suite(unit_square):
    t0 = time.time()
    clauses = []
    grid = F.make_grid(unit_square, 1 / 256)
    f = F.sample_function(grid, lambda x, y: x)
    rep = iq.improved_poincare_ratio(f, 2.0, 0.0)
    # closed forms by the 4-triangle split: lhs^2 = 1/12, rhs^2 = int d^2 = 1/24
    oracle = math.sqrt((1 / 12) / (1 / 24))
    clauses.append(
        (f"improved Poincare closed form {rep.ratio:.4f} = sqrt(2) +- 0.02",
         abs(rep.ratio - oracle) <= 0.02)
    )

    grid128 = F.make_grid(unit_square, 1 / 128)
    rng = np.random.default_rng(1)
    korn_ok = True
    frob_ok = True
    for k in range(30):
        c = rng.standard_normal((2, 4, 4))

        def comp(i):
            def fn(x, y):
                v = np.zeros_like(x)
                for a in range(4):
                    for b in range(4):
                        if a + b <= 3:
                            v += c[i, a, b] * x**a * y**b
                return v

            return fn

        u = (F.sample_function(grid128, comp(0)), F.sample_function(grid128, comp(1)))
        gx = F.gradient(u[0])
        gy = F.gradient(u[1])
        m = gx[0].mask
        G = [
            [gx[0].values, gx[1].values],
            [gy[0].values, gy[1].values],
        ]
        eps2 = G[0][0] ** 2 + G[1][1] ** 2 + 2 * (0.5 * (G[0][1] + G[1][0])) ** 2
        eta2 = 2 * (0.5 * (G[0][1] - G[1][0])) ** 2
        du2 = G[0][0] ** 2 + G[0][1] ** 2 + G[1][0] ** 2 + G[1][1] ** 2
        if float(np.abs(du2 - eps2 - eta2)[m].max()) > 1e-10:
            frob_ok = False
        r = iq.korn_ratio(u, 2.0, 0.0)
        if r.degenerate is None and r.ratio < 1.0 - 1e-9:
            korn_ok = False
    clauses.append(("Korn Frobenius identity to 1e-10", frob_ok))
    clauses.append(("Korn p=2 ratios >= 1 - 1e-9", korn_ok))

    fcheck = F.sample_function(
        grid128, lambda x, y: np.sign(np.sin(8 * np.pi * x) * np.sin(8 * np.pi * y))
    )
    rfs = iq.fefferman_stein_ratio(fcheck, 2.0, 0.0, 1.0, scales=7)
    clauses.append(
        (f"Fefferman-Stein ratio {rfs.ratio:.2f} <= 1e23 (recorded)",
         math.isfinite(rfs.ratio) and rfs.ratio <= 1e23)
    )

    grid64 = F.make_grid(unit_square, 1 / 64)
    u = F.sample_function(grid64, lambda x, y: x)
    ratios = [
        iq.fractional_poincare_ratio(u, 2.0, 0.0, 0.5, 0.5, 1_000_000, seed=s).ratio
        for s in range(5)
    ]
    mean = float(np.mean(ratios))
    spread = max(abs(v - mean) / mean for v in ratios)
    clauses.append((f"fractional MC reproducibility (spread {100 * spread:.2f}%)",
                    spread <= 0.03))
    s_exp, n = 0.5, 2
    small = iq.fractional_poincare_ratio(u, 2.0, 0.0, s_exp, 0.25, 1_000_000, seed=11).ratio
    big = iq.fractional_poincare_ratio(u, 2.0, 0.0, s_exp, 0.5, 1_000_000, seed=11).ratio
    clauses.append(
        ("tau^(s-n) trend with 1.5x slack",
         small / big <= (0.25 / 0.5) ** (s_exp - n) * 1.5)
    )
    _report(6, "inequality suite", clauses, time.time() - t0, 300.0)


def test_criterion_7_divergence_suite(square_trees):
    t0 = time.time()
    clauses = []
    # dense KKT oracle at a tiny size
    cells = np.array([0, 1, 2, 3])
    fvals = np.array([1.0, 0.0, -1.0, 0.0])
    loc = dv.local_div_solve(cells, fvals, ny=2, h=0.5)
    from test_divergence import dense_kkt_oracle, face_dicts

    fx_ids, fy_ids, u, nfx = dense_kkt_oracle(cells, fvals, 2, 0.5)
    fx, fy = face_dicts(loc)
    worst = max(abs(fx[k] - u[a]) for k, a in fx_ids.items())
    worst = max(worst, max(abs(fy[k] - u[nfx + a]) for k, a in fy_ids.items()))
    clauses.append((f"local solver vs dense oracle ({worst:.1e})", worst <= 1e-12))

    ratios = {0.0: [], -0.3: [], -0.8: []}
    resid_ok = True
    for lv in (5, 6, 7):
        grid = dc.decomposition_grid(square_trees[lv])
        f = collar_probe(square_trees[lv], grid)
        vec, rep = dv.solve_divergence(square_trees[lv], f, 2.0, 0.0)
        if rep.extra["div_residual_rel"] > 1e-8:
            resid_ok = False
        for beta in ratios:
            ratios[beta].append(dv.reweighted_ratio(vec, f, 2.0, beta))
    clauses.append(("global div residual <= 1e-8 ||f||", resid_ok))
    for beta in (0.0, -0.3):
        inc = np.diff(ratios[beta])
        clauses.append(
            (f"beta={beta}: ratio bounded (increments shrink, "
             f"{[round(v, 2) for v in ratios[beta]]})", inc[1] < inc[0])
        )
    inc = np.diff(ratios[-0.8])
    clauses.append(
        (f"beta=-0.8: ratio growing ({[round(v, 2) for v in ratios[-0.8]]})",
         inc[1] >= inc[0])
    )
    _report(7, "divergence suite", clauses, time.time() - t0, 300.0)
