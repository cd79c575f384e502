import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import oracle_a_tree
from whardy import cli
from whardy import hardy as hd
from whardy import treecover as tc
from whardy import whitney as wt
from whardy.errors import ParameterError, StructureError


def random_tree(rng, max_nodes=60):
    n = int(rng.integers(2, max_nodes + 1))
    parent = np.full(n, -1)
    for t in range(1, n):
        parent[t] = rng.integers(0, t)
    ell = 2.0 ** (-rng.integers(0, 6, size=n).astype(float))
    return parent, ell


def test_two_node_unit_weights():
    tree = tc.synthetic_tree([-1, 0], [1.0, 1.0])
    val, arg = hd.a_tree(tree, hd.WeightSpec(0.0, 2.0), 2.0)
    assert val == pytest.approx(1.0, abs=1e-15)
    assert arg == 1


def test_oracle_equivalence_small():
    rng = np.random.default_rng(0)
    for _ in range(10):
        parent, ell = random_tree(rng)
        beta = rng.uniform(-0.8, 0.5)
        p = rng.uniform(1.3, 3.0)
        theta = rng.uniform(1.05, 4.0)
        tree = tc.synthetic_tree(parent, ell)
        got, _ = hd.a_tree(tree, hd.WeightSpec(beta, p), theta)
        want, _ = oracle_a_tree(parent, ell, beta, p, theta)
        assert got == pytest.approx(want, rel=1e-10)


def test_a_tree_theta_validation(square_tree6):
    with pytest.raises(ParameterError):
        hd.a_tree(square_tree6, hd.WeightSpec(0.0, 2.0), 1.0)
    with pytest.raises(ParameterError):
        hd.WeightSpec(0.0, 1.0)
    with pytest.raises(ParameterError):
        hd.a_tree(square_tree6, hd.WeightSpec(0.0, 2.0), 0.9)
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterError):
            hd.WeightSpec(0.0, bad)
        with pytest.raises(ParameterError):
            hd.WeightSpec(bad, 2.0)
        with pytest.raises(ParameterError):
            hd.a_tree(square_tree6, hd.WeightSpec(0.0, 2.0), bad)


def test_weight_spec_conjugate():
    w = hd.WeightSpec(-0.2, 3.0)
    assert 1 / w.p + 1 / w.q == pytest.approx(1.0, abs=1e-12)


def test_a_chain_four_node_path():
    tree = tc.synthetic_tree([-1, 0, 1, 2], [1.0, 1.0, 1.0, 1.0])
    val = hd.a_chain(tree, hd.WeightSpec(0.0, 2.0))
    assert val == pytest.approx(math.sqrt(6.0), abs=1e-12)


def test_a_chain_degenerate_and_errors(square_tree6):
    single = tc.synthetic_tree([-1], [1.0])
    assert hd.a_chain(single, hd.WeightSpec(0.0, 2.0)) == 0.0
    with pytest.raises(StructureError):
        hd.a_chain(square_tree6, hd.WeightSpec(0.0, 2.0))


def test_a_chain_overflowing_weights_in_log_space():
    # ell_k = 2^(-300k): ell^-2 overflows and ell^2 underflows at k = 3, so the
    # chain constant comes from beta log ell, without a warning. At p = 2 the
    # prefix terms are ell^2 and the suffix terms ell^-2, so A^2 is the
    # largest prefix * suffix product over the non-root nodes.
    tree = tc.synthetic_tree([-1, 0, 1, 2], [2.0 ** (-300 * k) for k in range(4)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = hd.a_chain(tree, hd.WeightSpec(-2.0, 2.0))
    ell = [Fraction(1, 2 ** (300 * k)) for k in range(4)]
    sq = max(sum(e**2 for e in ell[:j + 1]) * sum(e**-2 for e in ell[j:]) for j in (1, 2, 3))
    assert sq == 2**1800 + 2**1201 + 2**601 + 1
    assert math.log(val) == pytest.approx(0.5 * math.log(sq.numerator), rel=1e-13)


def test_a_chain_products_out_of_range_in_log_space():
    # ell_k = 2^(-6k), beta = 12, p = 2: ell^beta and ell^n stay in range, but
    # the prefix terms ell^-26 = 2^(156k) pass 1e250 and the suffix terms
    # ell^26 fall below 1e-250, so their products were inf * 0 = NaN
    n = 12
    tree = tc.synthetic_tree([-1, *range(n - 1)], [2.0 ** (-6 * k) for k in range(n)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = hd.a_chain(tree, hd.WeightSpec(12.0, 2.0))

    def log_sum(logs):
        top = max(logs)
        return top + math.log(math.fsum(math.exp(x - top) for x in logs))

    log_pre = [156 * k * math.log(2.0) for k in range(n)]  # log ell_k^-26
    # at p = q = 2, A = max over non-root j of (prefix_j * suffix_j)^(1/2)
    want = max(0.5 * (log_sum(log_pre[:j + 1]) + log_sum([-x for x in log_pre[j:]]))
               for j in range(1, n))
    assert math.isfinite(val)
    assert val == pytest.approx(math.exp(want), rel=1e-12)


def test_snake_chain_bound():
    w = hd.WeightSpec(0.0, 2.0)
    for m in (2, 3, 5):
        ch = tc.build_cube_chain(m, 2)
        val = hd.a_chain(ch, w)
        assert val <= m**2 + 1e-12
    # the counting bound itself is exactly m^n
    m = 5
    ch = tc.build_cube_chain(m, 2)
    q = w.q
    bound = len(ch) ** (1 / q) * len(ch) ** (1 / w.p)
    assert bound == pytest.approx(m**2, abs=1e-12)


def test_tree_le_chain_relation():
    w = hd.WeightSpec(0.0, 2.0)
    ch = tc.build_cube_chain(4, 2)
    ac = hd.a_chain(ch, w)
    for theta in hd.DEFAULT_THETA_GRID:
        at, _ = hd.a_tree(ch, w, theta)
        assert at <= theta ** (1 / w.p) * ac + 1e-12


def test_scale_invariance():
    rng = np.random.default_rng(5)
    parent, ell = random_tree(rng, 40)
    w = hd.WeightSpec(-0.4, 2.5)
    # measure the rescaling factor on a two-node tree, then assert globally
    t2a = tc.synthetic_tree([-1, 0], [1.0, 0.5])
    t2b = tc.synthetic_tree([-1, 0], [2.0, 1.0])
    fa, _ = hd.a_tree(t2a, w, 1.5)
    fb, _ = hd.a_tree(t2b, w, 1.5)
    factor = fb / fa
    va, _ = hd.a_tree(tc.synthetic_tree(parent, ell), w, 1.5)
    vb, _ = hd.a_tree(tc.synthetic_tree(parent, 2.0 * ell), w, 1.5)
    assert vb == pytest.approx(factor * va, rel=1e-9)


def oracle_a_tree_log(parent, ell, beta, p, theta, ndim=2):
    """Log-domain exhaustive oracle for extreme weight magnitudes."""
    n = len(parent)
    q = p / (p - 1)
    logb = [ndim * math.log(l) for l in ell]
    lognu = [beta * math.log(l) for l in ell]

    def path(t):
        out = []
        while parent[t] >= 0:
            out.append(t)
            t = parent[t]
        return out

    def logsum(vals):
        m = max(vals)
        return m + math.log(sum(math.exp(v - m) for v in vals))

    anc = {t: path(t) for t in range(n)}
    root = next(t for t in range(n) if parent[t] < 0)
    best = -math.inf
    for t in range(n):
        if t == root:
            continue
        logS = logsum([(-q / p) * logb[s] - q * lognu[s] for s in anc[t]])
        shadow = [s for s in range(n) if t in anc[s] or s == t]
        terms = []
        for s in shadow:
            logSs = logsum([(-q / p) * logb[r] - q * lognu[r] for r in anc[s]])
            terms.append(logb[s] + p * lognu[s] + (p / q) * (1 - 1 / theta) * logSs)
        logT = logsum(terms)
        best = max(best, logS / (theta * q) + logT / p)
    return best


def test_log_space_fallback():
    # intermediate sums underflow/overflow past 1e+-250; the evaluation must
    # switch to log space and still match the exhaustive log-domain oracle
    n = 12
    parent = [-1] + list(range(n - 1))
    ell = [2.0 ** (-k) for k in range(n)]
    tree = tc.synthetic_tree(parent, ell)
    w = hd.WeightSpec(-40.0, 2.0)
    val, arg = hd.a_tree(tree, w, 1.5)
    want = oracle_a_tree_log(parent, ell, -40.0, 2.0, 1.5)
    assert math.log(val) == pytest.approx(want, rel=1e-10)
    assert 0 <= arg < n


def test_overflowing_term_goes_to_log_space_silently():
    # nu^(-q) = ell^(-24) overflows below the root, so the direct sums are
    # out of range for every theta; the switch to log space must not warn
    n = 8
    parent = [-1] + list(range(n - 1))
    ell = [2.0 ** (-6 * k) for k in range(n)]
    tree = tc.synthetic_tree(parent, ell)
    w = hd.WeightSpec(12.0, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = hd.a_tree_min(tree, w)
    for theta, (val, _) in rep.per_theta.items():
        want = oracle_a_tree_log(parent, ell, 12.0, 2.0, theta)
        assert val == pytest.approx(math.exp(want), rel=1e-10)


def test_a_tree_min_report(square_tree6):
    w = hd.WeightSpec(-0.3, 2.0)
    rep = hd.a_tree_min(square_tree6, w)
    assert set(rep.per_theta) == set(hd.DEFAULT_THETA_GRID)
    assert rep.a_tree_min == min(v for v, _ in rep.per_theta.values())
    assert rep.per_theta[rep.best_theta][0] == rep.a_tree_min


def reference_a_tree(tree, w, theta):
    """One theta on its own: two sweeps over (n, 2) Kahan rows and scalar
    exponents, no log-space fallback."""
    nu, b = tree.ell**w.beta, tree.ell**tree.ndim
    q = w.q
    term = b ** (-q / w.p) * nu ** (-q)
    x = np.stack([term, np.zeros_like(term)], axis=1)
    x[tree.root] = 0.0
    S = tc.accumulate_down(tree, x, hd._kahan_add)[:, 0]
    e = b * nu**w.p * np.where(S > 0, S, 1.0) ** ((w.p / q) * (1.0 - 1.0 / theta))
    e[tree.root] = 0.0
    T = tc.accumulate_up(tree, np.stack([e, np.zeros_like(e)], axis=1), hd._kahan_add)[:, 0]
    cand = np.where(S > 0, S ** (1.0 / (theta * q)) * T ** (1.0 / w.p), 0.0)
    t = int(cand.argmax())
    return float(cand[t]), t


def test_theta_batch_matches_single_theta_bitwise(square_trees):
    # p = 2 with theta = 2 in the grid: both exponents are 0.5, which numpy
    # maps to sqrt as a scalar but to pow as an array. The two differ in the
    # last bit of about one node value in twenty; over this beta grid that
    # reaches a reported constant at both levels.
    assert 2.0 in hd.DEFAULT_THETA_GRID
    for lv in (6, 7):
        for beta in hd.parse_grid("-0.9:0.3:0.05"):
            w = hd.WeightSpec(beta, 2.0)
            rep = hd.a_tree_min(square_trees[lv], w)
            for theta, got in rep.per_theta.items():
                assert got == hd.a_tree(square_trees[lv], w, theta)
                assert got == reference_a_tree(square_trees[lv], w, theta)


def test_theta_batch_mixes_direct_and_log_space(monkeypatch):
    # term and S stay inside 1e+-250, but the shadow sums of the larger
    # thetas pass 1e250, so only those thetas go to log space
    n = 7
    parent = [-1] + list(range(n - 1))
    ell = [2.0 ** (150 - 50 * k) for k in range(n)]
    tree = tc.synthetic_tree(parent, ell)
    w = hd.WeightSpec(-3.0, 2.0)
    logged = []
    log_path = hd._a_tree_log

    def spy(tree, w, thetas):
        logged.extend(thetas)
        return log_path(tree, w, thetas)

    monkeypatch.setattr(hd, "_a_tree_log", spy)
    rep = hd.a_tree_min(tree, w)
    assert 0 < len(logged) < len(hd.DEFAULT_THETA_GRID)
    for theta, (val, arg) in rep.per_theta.items():
        assert (val, arg) == hd.a_tree(tree, w, theta)
        if theta in logged:
            want = oracle_a_tree_log(parent, ell, -3.0, 2.0, theta)
            assert math.log(val) == pytest.approx(want, rel=1e-10)
        else:
            want, want_arg = oracle_a_tree(parent, ell, -3.0, 2.0, theta)
            assert val == pytest.approx(want, rel=1e-10)
            assert arg == want_arg


def assert_log_oracle(val, parent, ell, beta, p, theta):
    want = oracle_a_tree_log(parent, ell, beta, p, theta)
    if math.isinf(val):
        assert want > math.log(sys.float_info.max)
    else:
        assert math.log(val) == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_log_space_thetas_share_one_down_sweep(monkeypatch, tmp_path):
    # every theta of beta = -500 and -499 goes to log space at levels 4 and 5:
    # one log S down-sweep per (tree, beta), 4 in all, not one per theta
    log_sweeps = []
    down = hd.accumulate_down

    def counting(tree, x, op=np.add):
        if op is np.logaddexp:
            log_sweeps.append(len(tree))
        return down(tree, x, op)

    monkeypatch.setattr(hd, "accumulate_down", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["hardy", "--domain", "unit-square", "--levels", "4,5",
                       "--beta-grid", "-500:-499:1", "--out", str(tmp_path)])
    assert rc == 0
    assert len(log_sweeps) == 4


def test_overflowing_weights_go_to_log_space():
    # ell^beta over- or underflows for the larger |beta|: the evaluation takes
    # log nu = beta log ell and log b = n log ell instead of raising, silently
    n = 8
    parent = [-1] + list(range(n - 1))
    out_of_range = 0
    for k in (6, 20):
        ell = [2.0 ** (-k * j) for j in range(n)]
        tree = tc.synthetic_tree(parent, ell)
        for beta in (-60.0, -25.0, -1.0, 0.0, 1.0, 25.0, 60.0):
            w = hd.WeightSpec(beta, 2.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out_of_range += hd._weights(tree, beta) is None
                rep = hd.a_tree_min(tree, w)
            for theta, (val, _) in rep.per_theta.items():
                assert_log_oracle(val, parent, ell, beta, 2.0, theta)
    assert out_of_range >= 6


@pytest.fixture(scope="module")
def block_trees(square_trees, koch2):
    return [square_trees[6], square_trees[7], tc.build_tree(wt.whitney_decompose(koch2, 6))]


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_beta_blocks_match_per_beta_bitwise(block_trees, p):
    # blocks of one beta, of seven (the last one partial) and of the whole
    # grid give the bits of one a_tree_min per beta and of the lone-theta
    # reference
    thetas = hd.DEFAULT_THETA_GRID
    specs = [hd.WeightSpec(beta, p) for beta in hd.parse_grid("-0.9:0.3:0.05")]
    assert len(specs) % 7
    for tree in block_trees:
        want = []
        for w in specs:
            per = hd.a_tree_min(tree, w).per_theta
            want.append([per[theta] for theta in thetas])
            assert want[-1] == [reference_a_tree(tree, w, theta) for theta in thetas]
        for size in (1, 7, len(specs)):
            got = []
            for i in range(0, len(specs), size):
                got += hd._a_tree_block(tree, specs[i:i + size], thetas)
            assert got == want


def test_beta_block_mixes_direct_and_log_space(monkeypatch):
    # on this chain beta = -1 stays direct, beta = -3 sends some thetas to
    # log space and ell^-8 overflows; in one block only the columns that fail
    # on their own go to log space
    n = 7
    parent = [-1] + list(range(n - 1))
    ell = [2.0 ** (150 - 50 * k) for k in range(n)]
    tree = tc.synthetic_tree(parent, ell)
    thetas = hd.DEFAULT_THETA_GRID
    specs = [hd.WeightSpec(beta, 2.0) for beta in (-1.0, -3.0, -8.0)]
    logged = []
    log_path = hd._a_tree_log

    def spy(tree, w, thetas):
        logged.extend((w.beta, theta) for theta in thetas)
        return log_path(tree, w, thetas)

    monkeypatch.setattr(hd, "_a_tree_log", spy)
    alone = {(w.beta, theta): hd.a_tree(tree, w, theta) for w in specs for theta in thetas}
    alone_logged = set(logged)
    logged.clear()
    got = hd._a_tree_block(tree, specs, thetas)
    assert len(logged) == len(alone_logged) and set(logged) == alone_logged
    assert {beta for beta, _ in logged} == {-3.0, -8.0}
    assert len([1 for beta, _ in logged if beta == -3.0]) < len(thetas)
    for w, row in zip(specs, got):
        for theta, (val, arg) in zip(thetas, row):
            assert (val, arg) == alone[w.beta, theta]
            if (w.beta, theta) in alone_logged:
                assert_log_oracle(val, parent, ell, w.beta, 2.0, theta)
            else:
                assert (val, arg) == pytest.approx(oracle_a_tree(parent, ell, w.beta, 2.0, theta),
                                                   rel=1e-10)


def test_beta_sweep_rows_match_per_beta_a_tree_min(unit_square):
    betas = hd.parse_grid("-0.9:0.3:0.05")
    levels = [5, 6, 7]
    trees = {lv: tc.build_tree(wt.whitney_decompose(unit_square, lv)) for lv in levels}
    # L7 splits the grid into several blocks, the last one partial
    assert len(trees[7]) * len(hd.DEFAULT_THETA_GRID) * len(betas) > 2 * hd.BETA_BLOCK_ENTRIES
    want = []
    for beta in betas:
        for lv in levels:
            rep = hd.a_tree_min(trees[lv], hd.WeightSpec(beta, 2.0))
            want.append((beta, rep.best_theta, lv, rep.a_tree_min, rep.argmax))
    rows = hd.beta_sweep(unit_square, 2.0, betas, levels).rows
    assert [(r.beta, r.theta, r.level, r.a_tree, r.argmax_node) for r in rows] == want


def test_kahan_add_rows_fold_per_column():
    rng = np.random.default_rng(3)
    n, k = 50, 7
    # summands of mixed magnitude, so the compensation is not zero
    acc = rng.standard_normal((n, k, 2)) * np.array([1e8, 1e-8])
    x = rng.standard_normal((n, k, 2)) * 10.0 ** rng.integers(-8, 9, size=(n, k, 1))
    got = hd._kahan_add(acc, x)
    assert np.any(got[..., 1] != 0)
    for j in range(k):
        assert np.array_equal(got[:, j], hd._kahan_add(acc[:, j], x[:, j]))


def test_beta_sweep_classification(unit_square):
    rep = hd.beta_sweep(unit_square, 2.0, [-0.3, -0.7], [5, 6, 7])
    assert rep.classification[-0.3]["class"] == "convergent"
    assert rep.classification[-0.7]["class"] == "divergent"
    # below the admissible range the constant is nondecreasing in the level
    vals = rep.classification[-0.7]["values"]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_beta_zero_finite_all_presets():
    from whardy import geometry as geo
    from whardy.treecover import build_tree, root_center
    from whardy.whitney import whitney_decompose

    w = hd.WeightSpec(0.0, 2.0)
    for preset, kw in [
        ("unit_square", {}),
        ("l_shape", {}),
        ("slit_square", {}),
        ("koch_prefractal", {"level": 2}),
    ]:
        dom = geo.make_domain(preset, **kw)
        dec = whitney_decompose(dom, 5)
        tree = build_tree(dec, root_center(dec, geo.centroid(dom)))
        rep = hd.a_tree_min(tree, w)
        assert math.isfinite(rep.a_tree_min)


def test_parse_grid():
    assert hd.parse_grid("-0.5:0.1:0.2") == pytest.approx([-0.5, -0.3, -0.1, 0.1])
    with pytest.raises(ParameterError):
        hd.parse_grid("1:2")
    with pytest.raises(ParameterError):
        hd.parse_grid("0:1:-0.5")
    for bad in ("nan:0:0.1", "0:inf:0.1", "0:1:nan", "-inf:0:0.1", "0:1:1e-300",
                "-1e308:1e308:1"):
        with pytest.raises(ParameterError):
            hd.parse_grid(bad)
    cap = hd.MAX_GRID_POINTS
    assert len(hd.parse_grid(f"1:{cap}:1")) == cap
    with pytest.raises(ParameterError):
        hd.parse_grid(f"1:{cap + 1}:1")


def test_sweep_csv(tmp_path, unit_square):
    rep = hd.beta_sweep(unit_square, 2.0, [0.0], [4, 5])
    path = tmp_path / "sweep.csv"
    hd.write_sweep_csv(rep, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("beta,p,theta,level,A_tree")
    assert len(lines) == 3


def test_levels_must_increase(unit_square):
    for levels in ([5, 4], [5, 5]):
        with pytest.raises(ParameterError):
            hd.beta_sweep(unit_square, 2.0, [0.0], levels)
