import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given
from hypothesis import strategies as st

from conftest import collar_probe, dense_kkt_oracle, face_dicts, solve_patch
from whardy import decomp as dc
from whardy import divergence as dv
from whardy import fields as F
from whardy import geometry as G
from whardy import treecover as tc
from whardy import whitney as wt
from whardy.errors import CompatibilityError, ConvergenceError, ParameterError, StructureError


def oracle_energy(cells, f_vals, ny, h):
    """u^T A u of the dense oracle's velocities: on each face lattice, 4 u_a^2
    less u_a u_b for every ordered pair of neighbouring faces."""
    fx_ids, fy_ids, u, nfx = dense_kkt_oracle(cells, f_vals, ny, h)
    total = 0.0
    for ids, base in ((fx_ids, 0), (fy_ids, nfx)):
        for (i, j), a in ids.items():
            total += 4.0 * u[base + a] ** 2
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                b = ids.get((i + di, j + dj))
                if b is not None:
                    total -= u[base + a] * u[base + b]
    return total


def assert_matches_oracle(cells, f, ny, h, tol):
    fx, fy, energy = solve_patch(cells, f, ny, h)
    fx_ids, fy_ids, u, nfx = dense_kkt_oracle(cells, f, ny, h)
    assert fx.keys() == fx_ids.keys() and fy.keys() == fy_ids.keys()
    for key, a in fx_ids.items():
        assert fx[key] == pytest.approx(u[a], abs=tol)
    for key, a in fy_ids.items():
        assert fy[key] == pytest.approx(u[nfx + a], abs=tol)
    return fx, fy, energy


def divergence_residual(cells, f, ny, h, fx, fy):
    """|B u - h f| / |h f| (1 for zero data) of a patch's face dicts: each
    cell's high faces less its low faces, against h f."""
    ii, jj = np.divmod(np.asarray(cells), ny)
    div = [fx.get((i + 1, j), 0.0) - fx.get((i, j), 0.0) + fy.get((i, j + 1), 0.0)
           - fy.get((i, j), 0.0) for i, j in zip(ii.tolist(), jj.tolist())]
    rhs = h * np.asarray(f, dtype=float)
    return np.linalg.norm(np.array(div) - rhs) / (np.linalg.norm(rhs) or 1.0)


def add_faces(FX, FY, fx, fy):
    """Add a patch's face dicts to the grid's face arrays."""
    for arr, faces in ((FX, fx), (FY, fy)):
        ij = np.array(list(faces), dtype=np.int64).reshape(-1, 2)
        arr[ij[:, 0], ij[:, 1]] += np.array(list(faces.values()))


def test_local_solver_matches_dense_oracle():
    cells = np.array([0, 1, 2, 3])  # 2x2 block with ny = 2
    f = np.array([1.0, 0.0, -1.0, 0.0])
    fx, fy, _ = assert_matches_oracle(cells, f, 2, 0.5, 1e-12)
    assert divergence_residual(cells, f, 2, 0.5, fx, fy) <= 1e-10


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
        solve_patch([0, 1, 6, 7], [1.0, -1.0, 2.0, -2.0], ny=3, h=1.0, node=3)


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
    """Equal (fx, fy, energy) of two solves: the same faces in the same
    order, and equal floats."""
    assert [list(d.items()) for d in a[:2]] == [list(d.items()) for d in b[:2]]
    assert a[2] == b[2]


def block_row(cells, ny, system, u, energy, r):
    """Row r of a ``local_div_solve`` block as ``solve_patch`` returns it."""
    return *face_dicts(cells[r], ny, system, u[r]), float(energy[r])


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
    patch, patch_ny = (first, 8) if same_key else (cells, ny)
    system = next(dv._patch_systems(patch, [0, len(patch)], patch_ny, [-1]))
    shared = block_row(cells[None], ny, system,
                       *dv.local_div_solve(cells[None], f[None], ny, h, [-1], system), 0)
    assert len(splu_calls) == 1
    fresh = solve_patch(cells, f, ny, h)
    assert len(splu_calls) == 2
    assert_same_solve(shared, fresh)


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
    system = next(dv._patch_systems(first, [0, len(first)], ny, nodes[:1]))
    u, energy = dv.local_div_solve(cells, f, ny, 0.125, nodes, system)
    assert u.shape == (len(cells), system.has_fx.sum() + system.has_fy.sum())
    assert energy.shape == (len(cells),)
    for r in range(len(cells)):
        loc = block_row(cells, ny, system, u, energy, r)
        assert_same_solve(loc, solve_patch(cells[r], f[r], ny, 0.125, node=nodes[r]))
        assert divergence_residual(cells[r], f[r], ny, 0.125, *loc[:2]) <= dv.SOLVER_TOL
    assert energy[2] == 0.0 and not u[2].any()
    assert (u.shape[1] == 0) is (name == "no-face")


def reference_system(cells, ny):
    """(has_fx, has_fy, nfx, AB, K) of one patch built alone, from a sorted
    lookup of integer face keys: the oracle of the one-pass ``_assemble``."""
    ii, jj = np.divmod(np.asarray(cells, dtype=np.int64), ny)
    nc = len(ii)
    keys = ii * (ny + 1) + jj
    srt = np.argsort(keys)
    lattice = np.append(keys[srt], np.iinfo(np.int64).max)
    steps = keys[:, None] + np.array([0, ny + 1, -(ny + 1), 1, -1])
    at = np.searchsorted(lattice, steps)
    nb = np.where(lattice[at] == steps, np.append(srt, -1)[at], -1)
    has_fx, has_fy = nb[:, 2] >= 0, nb[:, 4] >= 0
    nfx = int(has_fx.sum())
    nf = nfx + int(has_fy.sum())
    if nf == 0:
        return has_fx, has_fy, 0, None, None

    def compressed(cols, vals):
        row, k = np.nonzero(cols >= 0)
        col = cols[row, k]
        order = np.argsort(row * (int(col.max()) + 1) + col)
        indptr = np.searchsorted(row, np.arange(len(cols) + 1))
        return vals[row, k][order], col[order].astype(np.int32), indptr.astype(np.int32)

    fx_id = np.full(nc + 1, -1)
    fx_id[:nc][has_fx] = np.arange(nfx)
    fy_id = np.full(nc + 1, -1)
    fy_id[:nc][has_fy] = np.arange(nfx, nf)
    cols = np.full((nf + nc, 7), -1)
    cols[:nf, :5] = np.concatenate([fx_id[nb[has_fx]], fy_id[nb[has_fy]]])
    cols[nf:, :4] = np.stack([fx_id[nb[:, 1]], fx_id[:nc], fy_id[nb[:, 3]], fy_id[:nc]], axis=1)
    vals = np.zeros((nf + nc, 7))
    vals[:nf] = [4.0, -1.0, -1.0, -1.0, -1.0, -1.0, 1.0]
    vals[nf:, :4] = [1.0, -1.0, 1.0, -1.0]
    AB = sp.csr_matrix(compressed(cols, vals), shape=(nf + nc, nf))
    cols[:nfx, 5:] = np.stack([np.flatnonzero(has_fx), nb[has_fx, 2]], axis=1)
    cols[nfx:nf, 5:] = np.stack([np.flatnonzero(has_fy), nb[has_fy, 4]], axis=1)
    cols[:nf, 5:] = np.where(cols[:nf, 5:] > 0, cols[:nf, 5:] + (nf - 1), -1)
    rows = np.r_[:nf, nf + 1:nf + nc]
    K = sp.csc_matrix(compressed(cols[rows], vals[rows]), shape=(nf + nc - 1, nf + nc - 1))
    return has_fx, has_fy, nfx, AB, K


def assert_systems_match_reference(cells, ptr, ny, block):
    """Each system of one ``_patch_systems`` call over the patches
    ``cells[ptr[s]:ptr[s + 1]]``, and the matrix it hands to ``splu``, has
    the reference's flags and compressed arrays, dtypes included."""
    factored = []
    real = spla.splu
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spla, "splu", lambda K: factored.append(K) or real(K))
        if block is not None:
            mp.setattr(G, "BLOCK", block)
        systems = dv._patch_systems(cells, ptr, ny, list(range(len(ptr) - 1)))
        for a, b in itertools.pairwise(ptr):
            seen = len(factored)
            system = next(systems)
            has_fx, has_fy, nfx, AB, K = reference_system(cells[a:b], ny)
            assert np.array_equal(system.has_fx, has_fx)
            assert np.array_equal(system.has_fy, has_fy) and system.nfx == nfx
            if AB is None:
                assert system.AB is None and system.lu is None and len(factored) == seen
                continue
            assert len(factored) == seen + 1
            for new, old in ((system.AB, AB), (factored[-1], K)):
                assert new.format == old.format and new.shape == old.shape
                for name in ("data", "indices", "indptr"):
                    x, y = getattr(new, name), getattr(old, name)
                    assert x.dtype == y.dtype and np.array_equal(x, y)
        assert next(systems, None) is None


@st.composite
def connected_patches(draw):
    """(i, j) offsets of a connected patch grown from one cell, a neighbour
    of some cell at a time, listed in a drawn order."""
    cells = [(0, 0)]
    for pick, (di, dj) in draw(st.lists(st.tuples(st.integers(0, 1000), st.sampled_from(
            [(1, 0), (-1, 0), (0, 1), (0, -1)])), max_size=30)):
        i, j = cells[pick % len(cells)]
        if (i + di, j + dj) not in cells:
            cells.append((i + di, j + dj))
    ij = np.array(draw(st.permutations(cells)))
    return ij - ij.min(axis=0)


# in every drawn batch: a single cell, a diagonal pair (no interior face),
# an L and the L with its cells in another order
FIXED_PATCHES = [np.array([[0, 0]]), np.array([[0, 0], [1, 1]]), np.array(L_CELLS),
                 np.array(L_CELLS)[L_PERM]]


@given(st.lists(connected_patches(), min_size=1, max_size=6), st.randoms(),
       st.sampled_from([None, 7]))
def test_one_pass_assembly_equals_reference(drawn, rand, block):
    patches = drawn + FIXED_PATCHES
    rand.shuffle(patches)
    ny = max(int(ij[:, 1].max()) for ij in patches) + 4
    # each patch at its own place on a grid of ny columns: shapes only
    # depend on offsets, so the places may overlap
    cells = np.concatenate([(ij[:, 0] + rand.randrange(5)) * ny + ij[:, 1]
                            + rand.randrange(ny - int(ij[:, 1].max())) for ij in patches])
    ptr = np.cumsum([0] + [len(ij) for ij in patches])
    assert_systems_match_reference(cells, ptr, ny, block)


@pytest.fixture(scope="module")
def collar_pieces(request):
    """(tree, grid, collar probe, its decomposition) of a domain fixture at
    a level, built once per module."""
    cache = {}

    def get(domain, level):
        if (domain, level) not in cache:
            tree = tc.build_tree(wt.whitney_decompose(request.getfixturevalue(domain), level))
            grid = dc.decomposition_grid(tree)
            f = collar_probe(tree, grid)
            cache[domain, level] = tree, grid, f, dc.c_decompose(tree, f)
        return cache[domain, level]

    return get


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("domain, level", [("koch2", 5), ("koch2", 6), ("slit_square", 6)])
def test_benchmark_shapes_assembly_equals_reference(collar_pieces, domain, level, block):
    """Every patch shape of the benchmark's divergence rungs, assembled in
    one pass (at BLOCK = 7 one patch a pass), as solve_divergence does."""
    _, grid, _, dec = collar_pieces(domain, level)
    first = {}
    for t, key in enumerate(dv.patch_keys(dec.cells, dec.ptr, grid.dims[1])):
        first.setdefault(key, t)
    nodes = np.array(sorted(first.values()))
    size = np.diff(dec.ptr)[nodes]
    cells = dec.cells[G.index_ranges(dec.ptr[nodes], size)]
    assert_systems_match_reference(cells, np.cumsum(np.append(0, size)), grid.dims[1], block)


def test_block_of_other_shapes_rejected():
    ny = 8
    first = l_patch(ny, (0, 0), None)
    f = np.zeros((3, len(first)))
    system = next(dv._patch_systems(first, [0, len(first)], ny, [5]))
    # the same cells in another order, then an L reflected in its diagonal
    for other in (l_patch(ny, (0, 0), L_PERM), np.array([j * ny + i for i, j in L_CELLS])):
        cells = np.array([first, first + ny, other])
        with pytest.raises(StructureError, match="node 7 does not have the shape of its system"):
            dv.local_div_solve(cells, f, ny, 0.25, [5, 6, 7], system)


def test_block_checked_against_its_system():
    ny = 8
    first = l_patch(ny, (0, 0), None)
    system = next(dv._patch_systems(first, [0, len(first)], ny, [5]))
    # a row of the same cells in another order; rows of the patch less its
    # last cell
    for cells, bad in ((np.array([first + ny, l_patch(ny, (0, 0), L_PERM)]), 6),
                       (np.array([first[:-1] + ny, first[:-1]]), 5)):
        with pytest.raises(StructureError, match=f"node {bad} does not have the shape of its system"):
            dv.local_div_solve(cells, np.zeros(cells.shape), ny, 0.25, [5, 6], system=system)
    # the means are the caller's to check; a row that is not mean-zero
    # fails the residual check
    f = np.zeros((2, len(first)))
    f[1, 0] = 1.0
    with pytest.raises(ConvergenceError, match="local solve on node 6 stalled"):
        dv.local_div_solve(np.array([first, first + ny]), f, ny, 0.25, [5, 6], system=system)


def test_block_nonzero_mean_row_names_its_node():
    f = np.array([[1.0, 0.0, -1.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 2.0, -2.0, 0.0]])
    # nodes 0-39 have empty pieces, nodes 40-42 the rows of f
    ptr = np.append(np.zeros(41, dtype=np.int64), [4, 8, 12])
    with pytest.raises(CompatibilityError, match="nonzero mean on node 41"):
        dv._check_mean_zero(f.ravel(), ptr, 1.0)


def test_nan_velocity_fails_global_check(square_trees, monkeypatch):
    real = dv.local_div_solve

    def nan_solve(cells, f_vals, ny, h, nodes, system):
        u, energy = real(cells, f_vals, ny, h, nodes, system)
        u[:, :system.nfx] = np.nan
        return u, energy

    monkeypatch.setattr(dv, "local_div_solve", nan_solve)
    f = bump_dipole(dc.decomposition_grid(square_trees[5]))
    with pytest.raises(ConvergenceError, match="global divergence residual"):
        dv.solve_divergence(square_trees[5], f, 2.0, 0.0)


def test_local_zero_rhs():
    cells = np.array([0, 1, 2, 3])
    fx, _, energy = solve_patch(cells, np.zeros(4), ny=2, h=1.0)
    assert energy == 0.0
    assert np.all(np.array(list(fx.values())) == 0.0)


def test_local_nonzero_mean_rejected():
    with pytest.raises(CompatibilityError):
        solve_patch([0, 1, 2, 3], np.ones(4), ny=2, h=1.0)


def test_energy_scaling_across_sizes():
    # same f-pattern, cube side doubled: the discrete energy scales by the
    # factor measured once on the smallest pair, uniformly across sizes
    rng = np.random.default_rng(1)
    ny = 4
    cells = np.array([i * ny + j for i in range(4) for j in range(4)])
    f = rng.standard_normal(len(cells))
    f -= f.mean()
    energies = [solve_patch(cells, f, ny, h)[2] for h in (0.1, 0.2, 0.4)]
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
    mac, rep = dv.solve_divergence(tree, f, 2.0, 0.0)
    assert rep.degenerate == "zero data"
    assert np.allclose(mac.fx, 0.0) and np.allclose(mac.fy, 0.0)


def test_support_and_mass_balance(solved5, square_trees):
    grid, f, mac, rep = solved5
    dec = dc.c_decompose(square_trees[5], f)
    # mass balance: node integrals sum to zero and match the data
    total = sum(dec.node_integral(t) for t in range(len(dec.tree)))
    assert abs(total) <= 1e-10
    # each local velocity lives only on faces interior to its patch
    ny = grid.dims[1]
    for t in range(10):
        cells, vals = dec.piece(t)
        fx, _, _ = solve_patch(cells, vals, ny, grid.h, node=t)
        patch = set(cells.tolist())
        for i, j in fx:
            assert (i - 1) * ny + j in patch and i * ny + j in patch


def test_additivity_of_divergence(solved5):
    grid, f, mac, rep = solved5
    covered = grid.covered
    div = mac.divergence()
    assert np.abs(np.where(covered, div - f.values, 0.0)).max() <= 1e-9 * (
        np.abs(f.values).max() + 1.0
    )


def test_energy_overlap_surrogate(solved5, square_trees):
    grid, f, mac, rep = solved5
    q = 2.0
    covered = grid.covered
    lhs, rhs = dv._apriori_norms(mac.cell_centered(), f, q, 0.0)
    global_norm = lhs / rhs * F.weighted_lp_norm(
        f.with_values(np.where(covered, np.abs(f.values), 0.0)), q, 0.0
    )
    # per-node gradient norms through the same measuring stick
    total = 0.0
    dec = dc.c_decompose(square_trees[5], f)
    for t in range(len(dec.tree)):
        FX = np.zeros((grid.dims[0] + 1, grid.dims[1]))
        FY = np.zeros((grid.dims[0], grid.dims[1] + 1))
        add_faces(FX, FY, *solve_patch(*dec.piece(t), grid.dims[1], grid.h, node=t)[:2])
        mac = dv.MacField(grid=grid, fx=FX, fy=FY)
        total += dv._apriori_norms(mac.cell_centered(), f, q, 0.0)[0] ** q
    assert global_norm**q <= total * (12**2) ** (q - 1) + 1e-12


# the benchmark's two L6 rungs, and the unit square at L7, where one
# lu.solve on a whole block changed the velocities' bits
LEVEL = {"koch2": 6, "slit_square": 6, "unit_square": 7}


@pytest.mark.parametrize("domain, shapes, block", [
    ("koch2", 37, None), ("slit_square", 43, None), ("unit_square", 78, None),
    ("koch2", 37, 7), ("slit_square", 43, 7)], ids=[
    "koch2-37", "slit_square-43", "unit_square-78", "koch2-37-block7", "slit_square-43-block7"])
def test_one_factor_per_patch_shape(collar_pieces, domain, shapes, block, splu_calls,
                                    monkeypatch):
    tree, grid, f, _ = collar_pieces(domain, LEVEL[domain])
    if block is not None:
        monkeypatch.setattr(G, "BLOCK", block)
    key_calls, solve_calls = [], []
    real_key, real_solve = dv.patch_keys, dv.local_div_solve
    monkeypatch.setattr(dv, "patch_keys", lambda *a: key_calls.append(1) or real_key(*a))
    monkeypatch.setattr(dv, "local_div_solve", lambda *a: solve_calls.append(1) or real_solve(*a))
    mac, rep = dv.solve_divergence(tree, f, 2.0, 0.0)
    # every node's key in one call, one factor and one block solve per shape
    assert len(splu_calls) == len(solve_calls) == shapes and len(key_calls) == 1
    dec = dc.c_decompose(tree, f)
    assert len(set(real_key(dec.cells, dec.ptr, grid.dims[1]))) == shapes
    # node-by-node with a fresh factor each, summed in node order
    FX, FY = np.zeros_like(mac.fx), np.zeros_like(mac.fy)
    energies = np.zeros(len(tree))
    for t in range(len(tree)):
        fx, fy, energies[t] = solve_patch(*dec.piece(t), grid.dims[1], grid.h, node=t)
        add_faces(FX, FY, fx, fy)
    assert len(splu_calls) == shapes + len(tree)
    assert np.array_equal(mac.fx, FX) and np.array_equal(mac.fy, FY)
    assert rep.extra["local_energies_sum"] == float(np.sum(energies))


def test_overlapping_pieces_sum_in_node_order(square_trees, monkeypatch):
    """Three pieces on one block of cells, visited out of node order (the
    2 x 3 shape of nodes 0 and 2, then node 1's 2 x 2), and empty pieces on
    every other node: the field is the node-order sum of each node's solve,
    bit for bit, where the visit order gives other bits."""
    tree = square_trees[5]
    grid = dc.decomposition_grid(tree)
    (nx, ny), n = grid.dims, len(tree)
    i0, j0 = nx // 2, ny // 2
    assert grid.covered[i0:i0 + 2, j0:j0 + 3].all()
    pieces = [np.array([(i0 + a) * ny + j0 + b for a in range(2) for b in range(cols)])
              for cols in (3, 2, 3)]
    rng = np.random.default_rng(8)
    vals = [v - v.mean() for v in (rng.standard_normal(len(c)) for c in pieces)]
    flat = np.zeros(nx * ny)
    for c, v in zip(pieces, vals):
        flat[c] += v
    f = grid.with_values(flat.reshape(nx, ny))
    ptr = np.append(np.cumsum([0, 6, 4, 6]), np.full(n - 3, 16))
    dec = dc.Decomposition(tree, f, ptr, np.concatenate(pieces), np.concatenate(vals))
    monkeypatch.setattr(dv, "c_decompose", lambda *a: dec)
    mac, rep = dv.solve_divergence(tree, f, 2.0, 0.0)
    FX, FY = np.zeros_like(mac.fx), np.zeros_like(mac.fy)
    energies = np.zeros(n)
    for t in range(3):
        fx, fy, energies[t] = solve_patch(pieces[t], vals[t], ny, grid.h, node=t)
        add_faces(FX, FY, fx, fy)
    assert np.array_equal(mac.fx, FX) and np.array_equal(mac.fy, FY)
    assert rep.extra["local_energies_sum"] == float(np.sum(energies))


def test_report_counts_and_energy_sum(solved5, square_trees):
    grid, f, mac, rep = solved5
    tree = square_trees[5]
    dec = dc.c_decompose(tree, f)
    assert rep.extra["nodes"] == len(tree) == 96
    assert rep.extra["uncovered_cells"] == int((grid.mask & ~grid.covered).sum()) > 0
    energies = [oracle_energy(*dec.piece(t), grid.dims[1], grid.h) for t in range(len(tree))]
    assert rep.extra["local_energies_sum"] == pytest.approx(math.fsum(energies), rel=1e-12)


def test_threshold_contrast_collar_probe(square_trees):
    ratios = {0.0: [], -0.3: [], -0.8: []}
    for lv in (5, 6, 7):
        grid = dc.decomposition_grid(square_trees[lv])
        f = collar_probe(square_trees[lv], grid)
        mac, rep = dv.solve_divergence(square_trees[lv], f, 2.0, 0.0)
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
