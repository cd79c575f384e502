import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import csr_lists, expanded_boxes, star_polygons, star_tree
from whardy import geometry as geo
from whardy import hardy as hd
from whardy import treecover as tc
from whardy import whitney as wt
from whardy.errors import ConnectivityError, ParameterError, StructureError


def explicit_subtree(tree, t):
    # oracle: walk parents from every node
    out = []
    for s in range(len(tree)):
        u = s
        while u != -1:
            if u == t:
                out.append(s)
                break
            u = int(tree.parent[u])
    return sorted(out)


def test_tree_validity(square_tree6):
    tree = square_tree6
    assert int((tree.parent < 0).sum()) == 1
    face = csr_lists(tree.decomposition.face_neighbors)
    for t in range(len(tree)):
        p = int(tree.parent[t])
        if p >= 0:
            assert p in face[t]
    # all reachable
    assert explicit_subtree(tree, tree.root) == list(range(len(tree)))


def test_k_containment_exact(square_tree6):
    tree = square_tree6
    dec = tree.decomposition
    L = int(dec.levels.max())
    lo, hi = dec.spans(L)
    Kn, Kd = tree.K_frac.numerator, tree.K_frac.denominator
    h_lo = tc.accumulate_up(tree, lo, np.minimum)
    h_hi = tc.accumulate_up(tree, hi, np.maximum)
    for t in range(len(tree)):
        w = int(hi[t, 0] - lo[t, 0])
        ctr2 = lo[t] + hi[t]
        reach = int(np.maximum(2 * h_hi[t] - ctr2, ctr2 - 2 * h_lo[t]).max())
        assert reach * Kd <= Kn * w


def overlapping_pairs(lo, hi):
    """(i, j), i < j, of every two integer boxes whose interiors meet."""
    meet = np.all((lo[:, None] < hi[None]) & (lo[None] < hi[:, None]), axis=2)
    return list(zip(*np.nonzero(np.triu(meet, 1))))


@settings(max_examples=20)
@given(star_polygons())
def test_k_is_the_least_containing_constant_on_star_polygons(dom):
    # per-node hulls by walking every node's ancestors, then the exact
    # least K >= 1 with every shadow hull inside K Q_t
    tree = star_tree(dom)
    lo, hi = tree.spans32[:, 0], tree.spans32[:, 1]
    h_lo, h_hi = lo.copy(), hi.copy()
    for s in range(len(tree)):
        u = int(tree.parent[s])
        while u >= 0:
            h_lo[u] = np.minimum(h_lo[u], lo[s])
            h_hi[u] = np.maximum(h_hi[u], hi[s])
            u = int(tree.parent[u])
    want = Fraction(1)
    for t in range(len(tree)):
        ctr2 = lo[t] + hi[t]
        reach = int(max(max(2 * h_hi[t] - ctr2), max(ctr2 - 2 * h_lo[t])))
        want = max(want, Fraction(reach, int(hi[t, 0] - lo[t, 0])))
    assert tree.K_frac == want


@settings(max_examples=20)
@given(star_polygons(), st.integers(0, 2**16))
def test_certificate_matches_brute_force_on_star_polygons(dom, seed):
    # the built tree's transfer boxes are pairwise disjoint; a box moved so
    # that its low corner sits one unit inside another's high corner is
    # caught and named as brute force names it
    tree = star_tree(dom)
    kids = np.flatnonzero(tree.parent >= 0)
    lo, hi = tree.boxes32[kids, 0], tree.boxes32[kids, 1]
    assert overlapping_pairs(lo, hi) == []
    tc._certify_disjoint(lo, hi, kids)
    if len(kids) < 2:
        return
    k, m = np.random.default_rng(seed).choice(len(kids), size=2, replace=False)
    lo, hi = lo.copy(), hi.copy()
    lo[k], hi[k] = hi[m] - 1, hi[m] - 1 + (hi[k] - lo[k])
    a, b = min((min(kids[i], kids[j]), max(kids[i], kids[j]))
               for i, j in overlapping_pairs(lo, hi))
    with pytest.raises(StructureError, match=f"nodes {a} and {b} overlap"):
        tc._certify_disjoint(lo, hi, kids)


@pytest.fixture(scope="module")
def koch2_tree6(koch2):
    return tc.build_tree(wt.whitney_decompose(koch2, 6), geo.centroid(koch2))


def test_shadow_containment_oracle_koch(koch2_tree6):
    # direct hull-containment scan over every shadow via explicit subtrees
    tree = koch2_tree6
    dec = tree.decomposition
    L = int(dec.levels.max())
    lo, hi = dec.spans(L)
    Kn, Kd = tree.K_frac.numerator, tree.K_frac.denominator
    rng = np.random.default_rng(0)
    nodes = rng.choice(len(tree), size=min(40, len(tree)), replace=False)
    for t in nodes:
        sub = explicit_subtree(tree, int(t))
        ctr2 = lo[t] + hi[t]
        w = int(hi[t, 0] - lo[t, 0])
        for s in sub:
            reach = int(np.maximum(2 * hi[s] - ctr2, ctr2 - 2 * lo[s]).max())
            assert reach * Kd <= Kn * w


def test_single_cube_tree(unit_square):
    dec = wt.WhitneyDecomposition(
        domain=unit_square,
        frame=wt.Frame((-0.5, -0.5), 2.0),
        max_level=4,
        levels=np.array([3]),
        indices=np.array([[3, 3]]),
        dist=np.array([0.25]),
        dist_sq=np.array([0.0625]),
    )
    tree = tc.build_tree(dec, (0.45, 0.45))
    assert len(tree) == 1
    assert tree.K == 1.0
    assert tree.boxes32.shape == (1, 2, 2) and not tree.boxes32.any()


def test_center_outside_error(square_dec6):
    with pytest.raises(ParameterError):
        tc.build_tree(square_dec6, (5.0, 5.0))


def test_disconnected_error(unit_square):
    # two far cubes; then a face-joined pair, a cube touching it only at a
    # corner, and a far cube; then the root cube alone and a far L of three
    for indices, sizes in (([[4, 4], [10, 10]], [1, 1]),
                           ([[4, 4], [4, 5], [5, 6], [10, 10]], [2, 1, 1]),
                           ([[4, 4], [10, 10], [10, 11], [11, 11]], [3, 1])):
        n = len(indices)
        dec = wt.WhitneyDecomposition(
            domain=unit_square,
            frame=wt.Frame((-0.5, -0.5), 2.0),
            max_level=5,
            levels=np.full(n, 4),
            indices=np.array(indices),
            dist=np.full(n, 0.2),
            dist_sq=np.full(n, 0.04),
        )
        with pytest.raises(ConnectivityError) as err:
            tc.build_tree(dec, (0.05, 0.05))
        assert err.value.component_sizes == sizes
        assert f"component sizes {sizes}" in str(err.value)


@pytest.mark.parametrize("tree_fixture", ["square_tree6", "koch2_tree6"])
def test_transfer_boxes(tree_fixture, request):
    tree = request.getfixturevalue(tree_fixture)
    dec = tree.decomposition
    kids = np.flatnonzero(tree.parent >= 0)
    assert len(kids) == len(tree) - 1
    assert not tree.boxes32[tree.root].any()
    # O(N^2) oracle: open interiors overlap iff lo < other hi on every axis
    lo, hi = tree.boxes32[kids, 0], tree.boxes32[kids, 1]
    overlap = np.all((lo[:, None] < hi[None]) & (lo[None] < hi[:, None]), axis=2)
    np.fill_diagonal(overlap, False)
    assert not overlap.any()
    # B_t inside both expansions
    unit = dec.frame.cube_side(int(dec.levels.max())) / 32.0
    world = np.asarray(dec.frame.origin) + tree.boxes32 * unit
    u = expanded_boxes(dec)
    for t in kids:
        b = world[t]
        for node in (t, int(tree.parent[t])):
            assert b[0, 0] >= u[node, 0, 0] - 1e-12 and b[0, 1] >= u[node, 0, 1] - 1e-12
            assert b[1, 0] <= u[node, 1, 0] + 1e-12 and b[1, 1] <= u[node, 1, 1] + 1e-12
    # |U_t| / |B_t| in the integer 1/32 lattice, recomputed exactly
    worst = max(
        (Fraction(17, 16) * 32 * int(tree.spans32[t, 1, 0] - tree.spans32[t, 0, 0])) ** 2
        / int((b[1][0] - b[0][0]) * (b[1][1] - b[0][1]))
        for t, b in zip(kids, tree.boxes32[kids])
    )
    assert tree.ratio_u_over_b() == float(worst)


def certify(boxes32):
    ids = np.array([t for t, b in enumerate(boxes32) if b is not None])
    b = np.array([boxes32[t] for t in ids])
    tc._certify_disjoint(b[:, 0], b[:, 1], ids)


def test_certificate_shared_edges_pass():
    certify([None, ((0, 0), (2, 2)), ((2, 0), (4, 2)), ((0, 2), (2, 4))])


def test_certificate_overlap_raises():
    with pytest.raises(StructureError, match="nodes 1 and 2"):
        certify([None, ((0, 0), (2, 2)), ((1, 1), (3, 3))])


def test_certificate_overlap_in_a_shared_second_cell_raises():
    # both boxes are of class 1; they share only the grid cell [2, 4)^2
    with pytest.raises(StructureError, match="nodes 0 and 1"):
        certify([((1, 1), (3, 3)), ((2, 2), (4, 4))])


def test_certificate_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(2, 12))
        lo = rng.integers(-10, 40, size=(n, 2))
        hi = lo + 2 ** rng.integers(0, 5, size=(n, 2)) * rng.integers(1, 3, size=(n, 2))
        pairs = overlapping_pairs(lo, hi)
        if pairs:
            with pytest.raises(StructureError, match="nodes {} and {} ".format(*pairs[0])):
                tc._certify_disjoint(lo, hi, np.arange(n))
        else:
            tc._certify_disjoint(lo, hi, np.arange(n))


def test_certificate_sweeps_past_neighbors():
    # a long box meets the one four places later in lo_x order, none between
    boxes = [((0, 0), (20, 1)), ((2, 2), (3, 3)), ((4, 2), (5, 3)),
             ((6, 2), (7, 3)), ((8, 0), (9, 1))]
    with pytest.raises(StructureError, match="nodes 0 and 4"):
        certify(boxes)


def test_u_over_b_equal_neighbors():
    # two level-1 cubes of a size-2 frame sharing the face x = 1
    dom = geo.PolygonalDomain(np.array([[0, 0], [2, 0], [2, 1], [0, 1]]), name="two_cubes")
    dec = wt.WhitneyDecomposition(
        domain=dom, frame=wt.Frame((0.0, 0.0), 2.0), max_level=1,
        levels=np.array([1, 1]), indices=np.array([[0, 0], [1, 0]]),
        dist=np.zeros(2), dist_sq=np.zeros(2))
    tree = tc.build_tree(dec, center=(0.5, 0.5))
    assert tree.parent.tolist() == [-1, 0]
    assert tree.boxes32[1].tolist() == [[31, 8], [33, 24]]
    assert tree.ratio_u_over_b() == (17 / 16) ** 2 * 32 == 36.125


def test_u_over_b_rejects_a_tree_without_whitney_cubes():
    # the chain's U_t = Q_t u Q_parent is not (17/16) Q_t
    with pytest.raises(StructureError, match="needs a Whitney tree"):
        tc.build_cube_chain(4, 2).ratio_u_over_b()


def test_shadow_stats_hand_chain():
    # chain of three equal cubes: root -> mid -> leaf
    tree = tc.synthetic_tree([-1, 0, 1], [1.0, 1.0, 1.0])
    stats = tc.shadow_stats(tree)
    # chain counts exclude the root, so the leaf sees two cubes at its size
    assert stats.P[2, 0] == 2
    assert stats.W[0].sum() == 3


def test_shadow_stats_subtree_oracle(square_tree6):
    tree = square_tree6
    stats = tc.shadow_stats(tree)
    rng = np.random.default_rng(1)
    for t in rng.choice(len(tree), size=25, replace=False):
        sub = explicit_subtree(tree, int(t))
        assert stats.shadow_size[t] == len(sub)
        for i in range(stats.W.shape[1]):
            assert stats.W[t, i] == sum(1 for s in sub if tree.level[s] == i)


def test_shadow_monotone(square_tree6):
    tree = square_tree6
    rng = np.random.default_rng(3)
    for t in rng.choice(len(tree), size=10, replace=False):
        sub_t = set(explicit_subtree(tree, int(t)))
        for s in list(sub_t)[:5]:
            assert set(explicit_subtree(tree, int(s))) <= sub_t


def test_chain_bound(square_tree6):
    stats = tc.shadow_stats(square_tree6)
    assert int(stats.P.max()) <= math.ceil(square_tree6.K) ** 2


def test_shadow_lemma_single_node():
    tree = tc.synthetic_tree([-1], [1.0])
    stats = tc.shadow_stats(tree)
    assert tc.verify_shadow_lemma(stats, 1.3) == pytest.approx(1.0)


def test_shadow_lemma_square_stability(square_trees):
    # above the boundary dimension the constant settles: increments shrink
    # and the last refinement step stays within 10%
    vals = []
    for lv in (5, 6, 7):
        stats = tc.shadow_stats(square_trees[lv])
        vals.append(tc.verify_shadow_lemma(stats, 1.1))
    assert vals[2] - vals[1] < vals[1] - vals[0]
    assert vals[2] / vals[1] < 1.1


def test_shadow_lemma_bad_lambda(square_tree6):
    with pytest.raises(ParameterError):
        tc.verify_shadow_lemma(tc.shadow_stats(square_tree6), 0.0)


def test_cube_chain_basic():
    ch = tc.build_cube_chain(1, 2)
    assert len(ch) == 1 and ch.K == 1.0

    ch5 = tc.build_cube_chain(5, 2)
    assert len(ch5) == 25
    assert ch5.is_chain
    # consecutive cells share a full edge: spans differ by one in one axis
    for t in range(1, 25):
        diff = np.abs(ch5.spans32[t, 0] - ch5.spans32[t - 1, 0])
        assert diff.sum() == 1

    with pytest.raises(ParameterError):
        tc.build_cube_chain(0)


def test_cube_chain_serpentine_hand():
    assert tc.serpentine_order(3, 2) == [
        (1, 1), (2, 1), (3, 1),
        (3, 2), (2, 2), (1, 2),
        (1, 3), (2, 3), (3, 3),
    ]
    ch = tc.build_cube_chain(3, 2)
    assert list(ch.parent) == [-1] + list(range(8))


def test_cube_chain_covering_constants():
    ch = tc.build_cube_chain(4, 2)
    unit = (1 / 4) / 32
    for t in range(1, len(ch)):
        # U_t is two cells, B_t the parent cell: area ratio exactly 2
        lo, hi = ch.boxes32[t] * unit
        assert (hi[0] - lo[0]) * (hi[1] - lo[1]) == (1 / 4) ** 2
    # B_1 is the root cell [0, 1/4]^2
    B = json.loads(tc.tree_to_json(ch))["B"]
    assert B[1] == {"center": [0.125, 0.125], "half_widths": [0.125, 0.125]}


def test_synthetic_tree_two_roots():
    with pytest.raises(StructureError):
        tc.synthetic_tree([-1, -1], [1.0, 1.0])


def test_synthetic_tree_cycle_and_out_of_range():
    # nodes 1 and 2 point at each other and never reach the root
    with pytest.raises(StructureError, match="cycle"):
        tc.synthetic_tree([-1, 2, 1], [1.0, 1.0, 1.0])
    with pytest.raises(StructureError, match="out of range"):
        tc.synthetic_tree([-1, 5], [1.0, 1.0])


# ---------------------------------------------------------------------------
# sweep helpers against plain per-node loops


def loop_up(parent, x, op):
    """Post-order recursion; the children of p fold in decreasing index order."""
    kids = [[c for c in range(len(parent)) if parent[c] == p] for p in range(len(parent))]
    out = np.array(x, copy=True)

    def fold(p):
        for c in reversed(kids[p]):
            fold(c)
            out[p] = op(out[p], out[c])

    fold(int(np.flatnonzero(np.asarray(parent) < 0)[0]))
    return out


def loop_down(parent, x, op):
    kids = [[c for c in range(len(parent)) if parent[c] == p] for p in range(len(parent))]
    out = np.array(x, copy=True)

    def walk(p):
        for c in kids[p]:
            out[c] = op(out[p], x[c])
            walk(c)

    walk(int(np.flatnonzero(np.asarray(parent) < 0)[0]))
    return out


def kahan_row(acc, x):
    # one compensated step: acc = (sum, compensation), adds x[0]
    y = x[0] - acc[1]
    t = acc[0] + y
    return np.array([t, (t - acc[0]) - y])


def bushy_parents(n, rng):
    """Random tree where every internal node gets 4 to 7 children, with
    shuffled labels so that index order and layer order disagree."""
    parent = [-1]
    queue = [0]
    while len(parent) < n:
        p = queue.pop(0)
        for _ in range(int(rng.integers(4, 8))):
            if len(parent) < n:
                queue.append(len(parent))
                parent.append(p)
    perm = rng.permutation(n)
    out = np.empty(n, dtype=np.int64)
    out[perm] = [-1 if p < 0 else perm[p] for p in parent]
    return out


def sweep_cases(n, rng):
    """(name, x, op, row op of the reference loop) per operation."""
    f = rng.lognormal(0.0, 8.0, n) * rng.choice([-1.0, 1.0], n)
    comp = np.stack([f, np.zeros(n)], axis=1)
    ints = rng.integers(-50, 50, size=(n, 3))
    return [
        ("add", f, np.add, np.add),
        ("kahan", comp, hd._kahan_add, kahan_row),
        ("logaddexp", rng.normal(0.0, 30.0, n), np.logaddexp, np.logaddexp),
        ("min", ints, np.minimum, np.minimum),
        ("max", ints, np.maximum, np.maximum),
        ("int-add", ints, np.add, np.add),
    ]


def sweep_trees(square_tree6):
    rng = np.random.default_rng(5)
    trees = [tc.synthetic_tree(bushy_parents(n, rng), np.ones(n))
             for n in rng.integers(2, 300, size=12)]
    return trees + [square_tree6]


def test_sweeps_match_per_node_loops(square_tree6):
    rng = np.random.default_rng(7)
    for tree in sweep_trees(square_tree6):
        parent = tree.parent.tolist()
        kids = [[c for c in range(len(parent)) if parent[c] == p] for p in range(len(parent))]
        assert csr_lists(tree.children) == kids
        assert tree.is_chain == all(len(k) <= 1 for k in kids)
        for name, x, op, row_op in sweep_cases(len(tree), rng):
            up = tc.accumulate_up(tree, x, op)
            assert np.array_equal(up, loop_up(parent, x, row_op)), name
            down = tc.accumulate_down(tree, x, op)
            assert np.array_equal(down, loop_down(parent, x, row_op)), name


def test_sweep_fold_order_hand():
    # root 0 with children 1, 2, 3: the 1.0 survives rounding only when child
    # 1 folds last, after 1e16 and -1e16 have cancelled
    tree = tc.synthetic_tree([-1, 0, 0, 0], np.ones(4))
    x = np.array([0.0, 1.0, 1e16, -1e16])
    assert tc.accumulate_up(tree, x)[0] == 1.0
    assert loop_up(tree.parent.tolist(), x, np.add)[0] == 1.0


def test_tree_json(square_tree6):
    obj = json.loads(tc.tree_to_json(square_tree6))
    assert obj["root"] == square_tree6.root
    assert obj["K"] == square_tree6.K
    assert len(obj["parent"]) == len(square_tree6)
    assert obj["B"][square_tree6.root] is None
    some = next(b for b in obj["B"] if b is not None)
    assert set(some) == {"center", "half_widths"}


def dumped_decomposition(dec):
    """The text of ``json.dumps`` on the decomposition's object, the
    reference decomposition_to_json must match byte for byte."""
    rows = zip(dec.levels.tolist(), dec.indices.tolist(), dec.dist.tolist())
    obj = {
        "frame": {"origin": list(dec.frame.origin), "size": dec.frame.size},
        "max_level": dec.max_level,
        "collar_width": dec.collar_width,
        "cubes": [{"id": t, "level": lev, "index": ij, "dist": d}
                  for t, (lev, ij, d) in enumerate(rows)],
        "neighbors": csr_lists(dec.neighbors),
        "face_neighbors": csr_lists(dec.face_neighbors),
    }
    return json.dumps(obj, sort_keys=True)


def dumped_tree(tree):
    """The text of ``json.dumps`` on the tree's object, the reference
    tree_to_json must match byte for byte."""
    B = [None] * len(tree)
    if tree.boxes32 is not None:
        kids = np.flatnonzero(tree.parent >= 0)
        dec = tree.decomposition
        if dec is None:
            origin, unit = 0.0, float(tree.ell[0]) / 32.0
        else:
            origin = np.asarray(dec.frame.origin)
            unit = dec.frame.cube_side(int(dec.levels.max())) / 32.0
        lo, hi = origin + tree.boxes32[kids, 0] * unit, origin + tree.boxes32[kids, 1] * unit
        rows = zip(kids.tolist(), ((lo + hi) / 2.0).tolist(), ((hi - lo) / 2.0).tolist())
        for t, center, half in rows:
            B[t] = {"center": center, "half_widths": half}
    obj = {"root": int(tree.root), "parent": tree.parent.tolist(), "K": tree.K, "B": B}
    return json.dumps(obj, sort_keys=True)


@pytest.mark.parametrize("preset, level, max_level", [
    ("unit_square", 0, 7), ("l_shape", 0, 7), ("slit_square", 0, 8), ("koch_prefractal", 3, 7),
])
def test_json_writers_equal_json_dumps_on_presets(preset, level, max_level):
    tree = tc.build_tree(wt.whitney_decompose(geo.make_domain(preset, level=level), max_level))
    assert wt.decomposition_to_json(tree.decomposition) == dumped_decomposition(tree.decomposition)
    assert tc.tree_to_json(tree) == dumped_tree(tree)


@settings(max_examples=3)
@given(star_polygons())
def test_json_writers_equal_json_dumps_on_star_polygons(dom):
    tree = star_tree(dom)
    assert wt.decomposition_to_json(tree.decomposition) == dumped_decomposition(tree.decomposition)
    assert tc.tree_to_json(tree) == dumped_tree(tree)


@pytest.mark.parametrize("tree", [
    tc.build_cube_chain(5, 1), tc.build_cube_chain(4, 2), tc.build_cube_chain(3, 3),
    tc.synthetic_tree([-1, 0, 0, 1], [1.0, 0.5, 0.5, 0.25]),  # no boxes, K is NaN
], ids=["chain-1d", "chain-2d", "chain-3d", "no-boxes"])
def test_tree_json_equals_json_dumps_without_a_decomposition(tree):
    assert tc.tree_to_json(tree) == dumped_tree(tree)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_json_writers_refuse_non_finite_values(square_dec6, bad):
    """json.dumps would write Infinity or NaN; the row writers refuse."""
    dist = square_dec6.dist.copy()
    dist[3] = bad
    with pytest.raises(ParameterError, match="must be finite"):
        wt.decomposition_to_json(dataclasses.replace(square_dec6, dist=dist))
    chain = tc.build_cube_chain(3)
    chain.ell = np.full(len(chain), math.nan)  # inf would warn on 0 * inf
    with pytest.raises(ParameterError, match="must be finite"):
        tc.tree_to_json(chain)


def test_json_writers_hold_at_most_three_times_their_text(koch3):
    """At Koch 3, level 8 (2,000 cubes), the per-cube dicts and lists took
    17.6 and 12.6 times the text; one string a cube or node, 2.4 and 2.5."""
    tree = tc.build_tree(wt.whitney_decompose(koch3, 8))
    for write, arg in ((wt.decomposition_to_json, tree.decomposition), (tc.tree_to_json, tree)):
        tracemalloc.start()
        try:
            text = write(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * len(text), write.__name__


def test_tree_json_boxes_from_boxes32(square_tree6):
    # every B_t is the world box of boxes32[t], in the same float operations
    tree = square_tree6
    dec = tree.decomposition
    B = json.loads(tc.tree_to_json(tree))["B"]
    origin = np.asarray(dec.frame.origin)
    unit = dec.frame.cube_side(int(dec.levels.max())) / 32.0
    assert [t for t, b in enumerate(B) if b is None] == [tree.root]
    for t in np.flatnonzero(tree.parent >= 0):
        lo, hi = origin + tree.boxes32[t, 0] * unit, origin + tree.boxes32[t, 1] * unit
        assert B[t] == {"center": ((lo + hi) / 2.0).tolist(),
                        "half_widths": ((hi - lo) / 2.0).tolist()}
