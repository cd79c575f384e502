import numpy as np
import pytest
import scipy.sparse.linalg as spla

from conftest import collar_probe
from whardy import decomp as dc
from whardy import divergence as dv
from whardy import fields as F
from whardy import geometry as G
from whardy import treecover as tc
from whardy import whitney as wt
from whardy.errors import CompatibilityError, ConvergenceError, ParameterError, StructureError


def dense_kkt_oracle(cells, f_vals, ny, h):
    """Direct dense solve of the same constrained minimization."""
    cellset = {int(c): k for k, c in enumerate(cells)}
    nc = len(cells)
    ii = cells // ny
    jj = cells % ny
    fx_ids, fy_ids = {}, {}
    for k in range(nc):
        i, j = int(ii[k]), int(jj[k])
        if i > 0 and (i - 1) * ny + j in cellset:
            fx_ids.setdefault((i, j), len(fx_ids))
        if j > 0 and i * ny + (j - 1) in cellset:
            fy_ids.setdefault((i, j), len(fy_ids))
    nfx = len(fx_ids)
    nf = nfx + len(fy_ids)

    def lap(ids):
        n = len(ids)
        A = 4.0 * np.eye(n)
        for (i, j), a in ids.items():
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                b = ids.get((i + di, j + dj))
                if b is not None:
                    A[a, b] = -1.0
        return A

    A = np.zeros((nf, nf))
    A[:nfx, :nfx] = lap(fx_ids)
    A[nfx:, nfx:] = lap(fy_ids)
    B = np.zeros((nc, nf))
    for k in range(nc):
        i, j = int(ii[k]), int(jj[k])
        for key, sign in (((i + 1, j), 1.0), ((i, j), -1.0)):
            a = fx_ids.get(key)
            if a is not None:
                B[k, a] = sign
        for key, sign in (((i, j + 1), 1.0), ((i, j), -1.0)):
            a = fy_ids.get(key)
            if a is not None:
                B[k, nfx + a] = sign
    K = np.zeros((nf + nc - 1, nf + nc - 1))
    K[:nf, :nf] = A
    K[:nf, nf:] = B[1:].T
    K[nf:, :nf] = B[1:]
    rhs = np.concatenate([np.zeros(nf), h * f_vals[1:]])
    sol = np.linalg.solve(K, rhs)
    return fx_ids, fy_ids, sol[:nf], nfx


def face_dicts(loc):
    """A local solve's x- and y-face velocities as {(i, j): value} dicts."""
    return tuple(
        {(int(i), int(j)): float(v) for (i, j), v in zip(ij, vals)}
        for ij, vals in ((loc.fx_ij, loc.fx), (loc.fy_ij, loc.fy))
    )


def solve_one(cells, f, ny, h, node=-1, system=None):
    """``local_div_solve`` on a block of one patch."""
    return dv.local_div_solve(np.asarray(cells)[None], np.asarray(f)[None], ny, h, [node],
                              system=system)[0]


def assert_matches_oracle(cells, f, ny, h, tol):
    loc = solve_one(cells, f, ny, h)
    fx_ids, fy_ids, u, nfx = dense_kkt_oracle(cells, f, ny, h)
    fx, fy = face_dicts(loc)
    assert fx.keys() == fx_ids.keys() and fy.keys() == fy_ids.keys()
    for key, a in fx_ids.items():
        assert fx[key] == pytest.approx(u[a], abs=tol)
    for key, a in fy_ids.items():
        assert fy[key] == pytest.approx(u[nfx + a], abs=tol)
    return loc


def test_local_solver_matches_dense_oracle():
    cells = np.array([0, 1, 2, 3])  # 2x2 block with ny = 2
    f = np.array([1.0, 0.0, -1.0, 0.0])
    loc = assert_matches_oracle(cells, f, 2, 0.5, 1e-12)
    assert loc.residual <= 1e-10


L_SHAPE = [i * 6 + j for i in range(4) for j in range(6) if i < 2 or j < 3]
PATCHES = {
    "rectangle": (5, [i * 5 + j for i in range(4) for j in range(5)]),
    "l-shape": (6, L_SHAPE),
    # (0, 4) and (1, 0) have consecutive flat ids 4, 5 but share no face;
    # so do the x-faces (1, 4) and (2, 0), flat ids 9, 10
    "row-wrap": (5, [*range(10), 10]),
    "unsorted": (6, list(np.random.default_rng(2).permutation(L_SHAPE))),
}


@pytest.mark.parametrize("name", PATCHES)
def test_local_solver_bigger_patch_oracle(name):
    ny, cells = PATCHES[name]
    cells = np.array(cells)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(len(cells))
    f -= f.mean()
    assert_matches_oracle(cells, f, ny, 0.25, 1e-11)


def test_local_disconnected_patch_rejected():
    # two dominoes, (0, 0)-(0, 1) and (2, 0)-(2, 1): the KKT matrix is
    # singular, and its factorization fails naming the node
    with pytest.raises(ConvergenceError, match="node 3 is singular"):
        solve_one([0, 1, 6, 7], [1.0, -1.0, 2.0, -2.0], ny=3, h=1.0, node=3)


@pytest.fixture
def splu_calls(monkeypatch):
    """Counts the SuperLU factorizations made while the test runs."""
    calls = []
    real = spla.splu

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    return calls


def assert_same_solve(a, b):
    assert np.array_equal(a.fx, b.fx) and np.array_equal(a.fy, b.fy)
    assert a.energy == b.energy and a.residual == b.residual


L_CELLS = [(i, j) for i in range(4) for j in range(6) if i < 2 or j < 3]
L_PERM = np.random.default_rng(5).permutation(len(L_CELLS))
# (ny, offset, h, cell order) of a second patch, against the first one at
# ny = 8, offset (0, 0), h = 0.25 in list order; then whether the two
# share a patch key, and so one factored system
SECOND_PATCH = {
    "translated": ((8, (3, 2), 0.125, None), True),
    "other-ny": ((11, (0, 0), 0.25, None), True),
    "permuted": ((8, (0, 0), 0.25, L_PERM), False),
}


def l_patch(ny, offset, order):
    ij = np.array(L_CELLS) + offset
    if order is not None:
        ij = ij[order]
    return ij[:, 0] * ny + ij[:, 1]


@pytest.mark.parametrize("name", SECOND_PATCH)
def test_shared_factor_equals_fresh_solve(name, splu_calls):
    (ny, offset, h, order), same_key = SECOND_PATCH[name]
    rng = np.random.default_rng(4)
    f = rng.standard_normal(len(L_CELLS))
    f -= f.mean()
    first = l_patch(8, (0, 0), None)
    cells = l_patch(ny, offset, order)
    assert (dv.patch_keys(cells, [0, len(cells)], ny)
            == dv.patch_keys(first, [0, len(first)], 8)) is same_key
    # the system solve_divergence passes: the first patch's when the keys agree
    system = (dv._patch_system(*np.divmod(first, 8), 8, -1) if same_key
              else dv._patch_system(*np.divmod(cells, ny), ny, -1))
    shared = solve_one(cells, f, ny, h, system=system)
    assert len(splu_calls) == 1
    fresh = solve_one(cells, f, ny, h)
    assert len(splu_calls) == 2
    assert_same_solve(shared, fresh)
    assert np.array_equal(shared.fx_ij, fresh.fx_ij)
    assert np.array_equal(shared.fy_ij, fresh.fy_ij)


def test_patch_keys_in_one_pass_equal_each_patch_alone():
    # the L, translated, permuted, empty and a single cell, last
    patches = [l_patch(8, (0, 0), None), l_patch(8, (3, 2), None), l_patch(8, (0, 0), L_PERM),
               np.zeros(0, dtype=np.int64), np.array([13])]
    ptr = np.cumsum([0] + [len(c) for c in patches])
    keys = dv.patch_keys(np.concatenate(patches), ptr, 8)
    assert keys == [dv.patch_keys(c, [0, len(c)], 8)[0] for c in patches]
    assert keys[0] == keys[1] != keys[2] and keys[3] == b""


# (ny, cells of the first patch, offsets of the others) of one block:
# L-shapes translated along a grid of ny = 12; 18 x 18 squares, whose KKT
# factor has supernodes on which SuperLU's several-right-hand-side path
# gives other floats than one right-hand side at a time; and diagonal
# pairs of cells, which share no face
BLOCKS = {
    "l-shape": (12, l_patch(12, (0, 0), None), [(0, 6), (5, 0), (4, 5), (1, 1), (3, 0)]),
    "square": (21, np.array([i * 21 + j for i in range(18) for j in range(18)]),
               [(18, 0), (3, 2), (40, 3)]),
    "no-face": (7, np.array([0, 8]), [(0, 2), (3, 1), (5, 4)]),
}


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("name", BLOCKS)
def test_block_equals_fresh_solves(name, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(G, "BLOCK", block)
    ny, first, offsets = BLOCKS[name]
    cells = np.array([first] + [first + di * ny + dj for di, dj in offsets])
    rng = np.random.default_rng(6)
    f = rng.standard_normal(cells.shape)
    f -= f.mean(axis=1, keepdims=True)
    f[2] = 0.0  # a zero-data row
    if name == "no-face":
        f[:] = 0.0  # nonzero data on a patch without interior faces is infeasible
    nodes = [10 + r for r in range(len(cells))]
    block_solves = dv.local_div_solve(cells, f, ny, 0.125, nodes)
    assert [loc.node for loc in block_solves] == nodes
    for r, loc in enumerate(block_solves):
        fresh = solve_one(cells[r], f[r], ny, 0.125, node=nodes[r])
        assert_same_solve(loc, fresh)
        assert np.array_equal(loc.fx_ij, fresh.fx_ij)
        assert np.array_equal(loc.fy_ij, fresh.fy_ij)
        assert loc.residual <= dv.SOLVER_TOL
    assert block_solves[2].energy == 0.0 and not block_solves[2].fx.any()
    assert (len(block_solves[0].fx) + len(block_solves[0].fy) == 0) is (name == "no-face")


def test_block_of_other_shapes_rejected():
    ny = 8
    first = l_patch(ny, (0, 0), None)
    f = np.zeros((3, len(first)))
    # the same cells in another order, then an L reflected in its diagonal
    for other in (l_patch(ny, (0, 0), L_PERM), np.array([j * ny + i for i, j in L_CELLS])):
        cells = np.array([first, first + ny, other])
        with pytest.raises(StructureError, match="node 7 does not have the shape of node 5"):
            dv.local_div_solve(cells, f, ny, 0.25, [5, 6, 7])


def test_block_nonzero_mean_row_names_its_node():
    cells = np.array([[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]])
    f = np.array([[1.0, 0.0, -1.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 2.0, -2.0, 0.0]])
    with pytest.raises(CompatibilityError, match="nonzero mean on node 41"):
        dv.local_div_solve(cells, f, 2, 1.0, [40, 41, 42])


def test_nan_velocity_fails_global_check(square_trees, monkeypatch):
    real = dv.local_div_solve

    def nan_solve(*args, **kwargs):
        block = real(*args, **kwargs)
        for loc in block:
            loc.fx = np.full_like(loc.fx, np.nan)
        return block

    monkeypatch.setattr(dv, "local_div_solve", nan_solve)
    f = bump_dipole(dc.decomposition_grid(square_trees[5]))
    with pytest.raises(ConvergenceError, match="global divergence residual"):
        dv.solve_divergence(square_trees[5], f, 2.0, 0.0)


def test_local_zero_rhs():
    cells = np.array([0, 1, 2, 3])
    loc = solve_one(cells, np.zeros(4), ny=2, h=1.0)
    assert loc.energy == 0.0
    assert np.all(loc.fx == 0.0)


def test_local_nonzero_mean_rejected():
    with pytest.raises(CompatibilityError):
        solve_one([0, 1, 2, 3], np.ones(4), ny=2, h=1.0)


def test_energy_scaling_across_sizes():
    # same f-pattern, cube side doubled: the discrete energy scales by the
    # factor measured once on the smallest pair, uniformly across sizes
    rng = np.random.default_rng(1)
    ny = 4
    cells = np.array([i * ny + j for i in range(4) for j in range(4)])
    f = rng.standard_normal(len(cells))
    f -= f.mean()
    energies = [solve_one(cells, f, ny, h).energy for h in (0.1, 0.2, 0.4)]
    factor = energies[1] / energies[0]
    assert energies[2] / energies[1] == pytest.approx(factor, rel=1e-12)
    assert factor == pytest.approx(4.0, rel=1e-12)


def test_solver_grid_mismatch(unit_square, square_trees):
    grid = F.make_grid(unit_square, 1 / 32)
    f = F.sample_function(grid, lambda x, y: x - 0.5)
    with pytest.raises(ParameterError):
        dv.solve_divergence(square_trees[5], f, 2.0, 0.0)


def bump_dipole(grid):
    def bump(x, y, cx, cy, r):
        rr = ((x - cx) ** 2 + (y - cy) ** 2) / r**2
        out = np.zeros_like(x)
        m = rr < 1
        out[m] = np.exp(-1.0 / (1.0 - rr[m]))
        return out

    f = F.sample_function(
        grid, lambda x, y: bump(x, y, 0.3, 0.5, 0.15) - bump(x, y, 0.7, 0.5, 0.15)
    )
    vals = f.values.copy()
    vals[grid.mask] -= vals[grid.mask].mean()
    return grid.with_values(np.where(grid.mask, vals, 0.0))


@pytest.fixture(scope="module")
def solved5(square_trees):
    grid = dc.decomposition_grid(square_trees[5])
    f = bump_dipole(grid)
    return grid, f, *dv.solve_divergence(square_trees[5], f, 2.0, 0.0)


def test_global_divergence_residual(solved5):
    *_, rep = solved5
    assert rep.extra["div_residual_rel"] <= 1e-8


def test_zero_data_degenerate(unit_square):
    tree = tc.build_tree(wt.whitney_decompose(unit_square, 4))
    grid = dc.decomposition_grid(tree)
    f = grid.with_values(np.zeros(grid.dims))
    mac, _, rep = dv.solve_divergence(tree, f, 2.0, 0.0)
    assert rep.degenerate == "zero data"
    assert np.allclose(mac.fx, 0.0) and np.allclose(mac.fy, 0.0)


def test_support_and_mass_balance(solved5, square_trees):
    grid, f, mac, solves, rep = solved5
    dec = dc.c_decompose(square_trees[5], f)
    # mass balance: node integrals sum to zero and match the data
    total = sum(dec.node_integral(t) for t in range(len(dec.tree)))
    assert abs(total) <= 1e-10
    # each local velocity lives only on faces interior to its patch
    ny = grid.dims[1]
    for loc in solves[:10]:
        patch = set(int(c) for c in loc.cells)
        for i, j in loc.fx_ij.tolist():
            assert (i - 1) * ny + j in patch and i * ny + j in patch


def test_additivity_of_divergence(solved5):
    grid, f, mac, solves, rep = solved5
    covered = grid.covered
    div = mac.divergence()
    assert np.abs(np.where(covered, div - f.values, 0.0)).max() <= 1e-9 * (
        np.abs(f.values).max() + 1.0
    )


def test_energy_overlap_surrogate(solved5):
    grid, f, mac, solves, rep = solved5
    q = 2.0
    covered = grid.covered
    lhs, rhs = dv._apriori_norms(mac.cell_centered(), f, q, 0.0)
    global_norm = lhs / rhs * F.weighted_lp_norm(
        f.with_values(np.where(covered, np.abs(f.values), 0.0)), q, 0.0
    )
    # per-node gradient norms through the same measuring stick
    total = 0.0
    for loc in solves:
        FX = np.zeros((grid.dims[0] + 1, grid.dims[1]))
        FY = np.zeros((grid.dims[0], grid.dims[1] + 1))
        FX[loc.fx_ij[:, 0], loc.fx_ij[:, 1]] = loc.fx
        FY[loc.fy_ij[:, 0], loc.fy_ij[:, 1]] = loc.fy
        mac = dv.MacField(grid=grid, fx=FX, fy=FY)
        total += dv._apriori_norms(mac.cell_centered(), f, q, 0.0)[0] ** q
    assert global_norm**q <= total * (12**2) ** (q - 1) + 1e-12


@pytest.mark.parametrize("domain, shapes", [("koch2", 37), ("slit_square", 43)])
def test_one_factor_per_patch_shape(request, domain, shapes, splu_calls, monkeypatch):
    tree = tc.build_tree(wt.whitney_decompose(request.getfixturevalue(domain), 6))
    grid = dc.decomposition_grid(tree)
    f = collar_probe(tree, grid)
    key_calls = []
    real_key = dv.patch_keys
    monkeypatch.setattr(dv, "patch_keys", lambda *a: key_calls.append(1) or real_key(*a))
    mac, solves, rep = dv.solve_divergence(tree, f, 2.0, 0.0)
    # every node's key in one call
    assert len(splu_calls) == shapes and len(key_calls) == 1
    dec = dc.c_decompose(tree, f)
    assert len(set(dv.patch_keys(dec.cells, dec.ptr, grid.dims[1]))) == shapes
    # node-by-node with a fresh factor each, summed in node order
    FX, FY = np.zeros_like(mac.fx), np.zeros_like(mac.fy)
    for t in range(len(tree)):
        loc = solve_one(*dec.piece(t), grid.dims[1], grid.h, node=t)
        assert_same_solve(loc, solves[t])
        FX[loc.fx_ij[:, 0], loc.fx_ij[:, 1]] += loc.fx
        FY[loc.fy_ij[:, 0], loc.fy_ij[:, 1]] += loc.fy
    assert len(splu_calls) == shapes + len(tree)
    assert np.array_equal(mac.fx, FX) and np.array_equal(mac.fy, FY)


def test_threshold_contrast_collar_probe(square_trees):
    ratios = {0.0: [], -0.3: [], -0.8: []}
    for lv in (5, 6, 7):
        grid = dc.decomposition_grid(square_trees[lv])
        f = collar_probe(square_trees[lv], grid)
        mac, _, rep = dv.solve_divergence(square_trees[lv], f, 2.0, 0.0)
        vec = mac.cell_centered()
        for beta in ratios:
            lhs, rhs = dv._apriori_norms(vec, f, 2.0, beta)
            ratios[beta].append(lhs / rhs)
    for beta in (0.0, -0.3):
        vals = ratios[beta]
        increments = np.diff(vals)
        assert increments[1] < increments[0]  # settling
    vals = ratios[-0.8]
    increments = np.diff(vals)
    assert increments[1] >= increments[0]  # growing below the threshold
