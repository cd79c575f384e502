import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import collar_probe, expanded_boxes, random_mean_zero, star_polygons, star_tree
from whardy import decomp as dc
from whardy import divergence as dv
from whardy import fields as F
from whardy import geometry
from whardy import treecover as tc
from whardy import whitney as wt
from whardy.errors import ConnectivityError, EmptyDecompositionError, ParameterError


@pytest.fixture(scope="module")
def tree5(square_decs):
    return tc.build_tree(square_decs[5], (0.5, 0.5))


@pytest.fixture(scope="module")
def grid5(tree5):
    return dc.decomposition_grid(tree5)


@pytest.fixture(scope="module")
def koch2_tree6(koch2):
    return tc.build_tree(wt.whitney_decompose(koch2, 6))


def dense(d, t):
    """g_t of ``d`` on the whole (flattened) grid."""
    flat = np.zeros(d.grid.values.size)
    cells, values = d.piece(t)
    flat[cells] = values
    return flat


def box_cells(tree, grid, t):
    ptr, cells = dc._snap_b_cells(tree, grid)
    return cells[ptr[t]:ptr[t + 1]]


def test_grid_alignment(tree5, grid5):
    dec = tree5.decomposition
    finest = dec.frame.cube_side(int(dec.levels.max()))
    assert grid5.h == pytest.approx(finest / 4.0)
    # every cube is a whole number of cells in each direction
    assign = dc.assign_cells(tree5, grid5)
    for t in (0, len(tree5) // 2, len(tree5) - 1):
        cells = int((assign == t).sum())
        side_cells = round(dec.sides[t] / grid5.h)
        assert cells == side_cells**2


def test_assignment_unique_and_inside(tree5, grid5):
    dec = tree5.decomposition
    assign = dc.assign_cells(tree5, grid5)
    cc = grid5.cell_centers()
    cubes = expanded_boxes(dec, factor=1.0)
    rng = np.random.default_rng(0)
    for t in rng.choice(len(tree5), size=12, replace=False):
        sel = assign == t
        lo, hi = cubes[t]
        pts = cc[sel]
        assert np.all(pts >= lo - 1e-12)
        assert np.all(pts <= hi + 1e-12)


def test_assignment_is_the_cube_holding_each_cell_centre(koch2_tree6):
    grid = dc.decomposition_grid(koch2_tree6)
    dec = koch2_tree6.decomposition
    cells = np.random.default_rng(2).choice(np.flatnonzero(grid.mask), 800, replace=False)
    centres = grid.cell_centers().reshape(-1, 2)[cells]
    want = [dec.locate(c) for c in centres]
    assert grid.assignment.flat[cells].tolist() == [-1 if t is None else t for t in want]
    assert len(set(want)) > 50


def test_single_cube_supported(tree5, grid5):
    # mean-zero g inside one cube decomposes as itself, everything else zero
    assign = dc.assign_cells(tree5, grid5)
    t0 = int(np.argsort(tree5.depth, kind="stable")[len(tree5) // 2])
    cells = np.argwhere(assign == t0)
    vals = np.zeros(grid5.dims)
    half = len(cells) // 2
    vals[cells[:half, 0], cells[:half, 1]] = 1.0
    vals[cells[half:, 0], cells[half:, 1]] = -1.0
    g = grid5.with_values(vals)
    d = dc.c_decompose(tree5, g)
    assert np.allclose(dense(d, t0), vals.ravel(), atol=1e-15)
    for t in range(len(tree5)):
        if t != t0:
            assert np.allclose(d.piece(t)[1], 0.0)


def two_cube_tree(domain):
    # two equal face-neighbor level-4 cubes, root [7, 8] x [7, 8] and child
    # [8, 9] x [7, 8] in finest-side units of the frame
    dec = wt.WhitneyDecomposition(
        domain=domain,
        frame=wt.Frame((-0.5, -0.5), 2.0),
        max_level=4,
        levels=np.array([4, 4]),
        indices=np.array([[7, 7], [8, 7]]),
        dist=np.array([0.3, 0.3]),
        dist_sq=np.array([0.09, 0.09]),
    )
    return tc.build_tree(dec, expanded_boxes(dec)[0].mean(axis=0))


def test_two_cube_hand_computation(unit_square):
    # root r and child c, g = +1 on Q_c, -1 on Q_r
    tree = two_cube_tree(unit_square)
    grid = dc.decomposition_grid(tree)
    assign = dc.assign_cells(tree, grid)
    vals = np.where(assign == 1, 1.0, np.where(assign == 0, -1.0, 0.0))
    g = grid.with_values(vals)
    d = dc.c_decompose(tree, g)
    h2 = grid.h**2
    area = float((assign == 1).sum()) * h2
    box = box_cells(tree, grid, 1)
    phi = 1.0 / (len(box) * h2)
    # child piece: own +1 plus the mass pulled out through B
    expect = np.where(assign == 1, 1.0, 0.0).ravel()
    expect[box] -= area * phi
    assert np.allclose(dense(d, 1), expect, atol=1e-14)
    # root piece: own -1 plus the transferred mass
    expect = np.where(assign == 0, -1.0, 0.0).ravel()
    expect[box] += area * phi
    assert np.allclose(dense(d, 0), expect, atol=1e-14)
    assert abs(d.node_integral(0)) < 1e-15
    assert abs(d.node_integral(1)) < 1e-15


def test_two_cube_snapped_box(unit_square):
    # face x = 8 is frame cell line 32; the middle half of y in [28, 32) is
    # cells 29-30, and one cell on each side of the face is cells 31-32
    tree = two_cube_tree(unit_square)
    grid = dc.decomposition_grid(tree)
    i0, j0 = dc.grid_layout(tree)[3]
    ny = grid.dims[1]
    expect = sorted((i - i0) * ny + (j - j0) for i in (31, 32) for j in (29, 30))
    ptr, cells = dc._snap_b_cells(tree, grid)
    assert ptr.tolist() == [0, 0, 4]  # the root has no box
    assert cells.tolist() == expect


def support_violations(d):
    tree, grid = d.tree, d.grid
    dec = tree.decomposition
    ny = grid.dims[1]
    bad = 0
    for t, (lo, hi) in enumerate(expanded_boxes(dec)):
        cells, values = d.piece(t)
        ii, jj = np.divmod(cells, ny)
        nz = np.abs(values) > 0
        x0 = grid.origin[0] + ii * grid.h
        y0 = grid.origin[1] + jj * grid.h
        outside = (
            (x0 + grid.h < lo[0] - 1e-12)
            | (x0 > hi[0] + 1e-12)
            | (y0 + grid.h < lo[1] - 1e-12)
            | (y0 > hi[1] + 1e-12)
        )
        bad += int((outside & nz).sum())
    return bad


def assert_definition_properties(tree, grid, seed):
    """Exact reconstruction, zero node integrals and support inclusion for
    random mean-zero data."""
    cov = dc.assign_cells(tree, grid) >= 0
    g = random_mean_zero(tree, grid, seed)
    d = dc.c_decompose(tree, g)
    rec = d.reconstruct()
    linf = np.abs(g.values).max()
    l1 = float(np.abs(g.values[cov]).sum()) * grid.h**2
    assert np.abs(rec - g.values)[cov].max() <= 1e-12 * linf
    assert max(abs(d.node_integral(t)) for t in range(len(tree))) <= 1e-10 * l1
    assert support_violations(d) == 0


def test_definition_properties_random(tree5, grid5):
    for seed in range(5):
        assert_definition_properties(tree5, grid5, seed)


@settings(max_examples=20)
@given(star_polygons(), st.integers(0, 2**16))
def test_definition_properties_on_star_polygons(dom, seed):
    tree = star_tree(dom)
    assert_definition_properties(tree, dc.decomposition_grid(tree), seed)


def test_linearity(tree5, grid5):
    ga = random_mean_zero(tree5, grid5, 10)
    gb = random_mean_zero(tree5, grid5, 11)
    combo = grid5.with_values(2.0 * ga.values - 3.0 * gb.values)
    da = dc.c_decompose(tree5, ga)
    db = dc.c_decompose(tree5, gb)
    dcb = dc.c_decompose(tree5, combo)
    for t in range(len(tree5)):
        assert np.allclose(dense(dcb, t), 2.0 * dense(da, t) - 3.0 * dense(db, t), atol=1e-10)


def test_telescoping(tree5, grid5):
    g = random_mean_zero(tree5, grid5, 3)
    d = dc.c_decompose(tree5, g)
    shadow_sums = tc.accumulate_up(tree5, [d.node_integral(t) for t in range(len(tree5))])
    rng = np.random.default_rng(4)
    for s in rng.choice(len(tree5), size=10, replace=False):
        assert abs(shadow_sums[s]) < 1e-12


def test_nonzero_mean_rejected(tree5, grid5):
    assign = dc.assign_cells(tree5, grid5)
    vals = np.where(assign >= 0, 1.0, 0.0)
    with pytest.raises(ParameterError):
        dc.c_decompose(tree5, grid5.with_values(vals))


def test_b_cells_disjoint(tree5, grid5):
    ptr, cells = dc._snap_b_cells(tree5, grid5)
    assert ptr[tree5.root] == ptr[tree5.root + 1]
    assert (np.diff(ptr)[np.arange(len(tree5)) != tree5.root] > 0).all()
    assert len(cells) == len(np.unique(cells))


def test_ratio_identity_for_single_cube(tree5, grid5):
    assign = dc.assign_cells(tree5, grid5)
    t0 = int(np.argsort(tree5.depth, kind="stable")[len(tree5) // 2])
    cells = np.argwhere(assign == t0)
    vals = np.zeros(grid5.dims)
    half = len(cells) // 2
    vals[cells[:half, 0], cells[:half, 1]] = 1.0
    vals[cells[half:, 0], cells[half:, 1]] = -1.0
    d = dc.c_decompose(tree5, grid5.with_values(vals))
    assert dc.decomposition_ratio(d, 2.0, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_ratio_is_the_fsum_ratio(koch2_tree6):
    """Both sums of the decomposition ratio are correctly rounded: bit for
    bit math.fsum's over the pieces and over the covered cells."""
    grid = dc.decomposition_grid(koch2_tree6)
    g = random_mean_zero(koch2_tree6, grid, 1)
    d = dc.c_decompose(koch2_tree6, g)
    cov = grid.covered
    for q, beta in ((2.0, 0.0), (2.0, -0.3), (3.0, 0.2)):
        power = -beta * q
        num = np.abs(d.values) ** q * grid.dist.ravel()[d.cells] ** power
        den = np.abs(g.values[cov]) ** q * grid.dist[cov] ** power
        want = math.fsum(num.tolist()) ** (1 / q) / math.fsum(den.tolist()) ** (1 / q)
        assert dc.decomposition_ratio(d, q, beta) == want


def test_ratio_zero_denominator(tree5, grid5):
    d = dc.c_decompose(tree5, grid5.with_values(np.zeros(grid5.dims)))
    with pytest.raises(ParameterError):
        dc.decomposition_ratio(d, 2.0, 0.0)


def test_ratio_stability_above_threshold(square_decs):
    # seed-averaged random family, beta p = -0.6 above the -1 threshold
    means = []
    for lv in (5, 6, 7):
        tree = tc.build_tree(square_decs[lv], (0.5, 0.5))
        grid = dc.decomposition_grid(tree)
        vals = []
        for seed in range(5):
            g = random_mean_zero(tree, grid, 100 + seed)
            vals.append(dc.decomposition_ratio(dc.c_decompose(tree, g), 2.0, -0.3))
        means.append(float(np.mean(vals)))
    mean = float(np.mean(means))
    assert max(means) <= 1.1 * mean
    assert min(means) >= 0.9 * mean


def test_ratio_growth_below_threshold(square_decs):
    # boundary probe family, beta p = -1.4 below the threshold: R grows,
    # and strictly faster than the same family above the threshold
    above, below = [], []
    for lv in (5, 6, 7):
        tree = tc.build_tree(square_decs[lv], (0.5, 0.5))
        grid = dc.decomposition_grid(tree)
        d = dc.c_decompose(tree, collar_probe(tree, grid))
        above.append(dc.decomposition_ratio(d, 2.0, -0.3))
        below.append(dc.decomposition_ratio(d, 2.0, -0.7))
    assert below[0] < below[1] < below[2]
    for k in range(2):
        assert below[k + 1] / below[k] > above[k + 1] / above[k]


def test_dump_format(tree5, grid5):
    d = dc.c_decompose(tree5, random_mean_zero(tree5, grid5, 6))
    import json

    line, body = dc.dump_decomposition(d).split(b"\n", 1)
    header = json.loads(line)
    assert header["dims"] == list(grid5.dims)
    assert len(header["index"]) == len(tree5)
    # each node's block is its cell ids then its values, at its offset
    for entry in header["index"]:
        cells, values = d.piece(entry["node"])
        block = body[entry["offset"]:entry["offset"] + 16 * entry["count"]]
        assert block == cells.astype("<i8").tobytes() + values.astype("<f8").tobytes()
    assert len(body) == 16 * len(d.cells)


def reference_snap_b_cells(tree, grid, t):
    """B_t snapped to the grid on its own, one node at a time."""
    lo, hi = tree.boxes32[t]
    f = int(np.argmin(hi - lo))
    o = 1 - f
    face_cell = int(lo[f] + hi[f]) // 16
    per_side = max(1, int(hi[f] - lo[f]) // 16)
    across = np.arange(face_cell - per_side, face_cell + per_side)
    along = np.arange(int(lo[o]) // 8, int(hi[o]) // 8)
    i0, j0 = dc.grid_layout(tree)[3]
    if f == 0:
        ii = np.repeat(across, len(along)) - i0
        jj = np.tile(along, len(across)) - j0
    else:
        ii = np.tile(along, len(across)) - i0
        jj = np.repeat(across, len(along)) - j0
    return (ii * grid.dims[1] + jj).astype(np.int64)


def reference_c_decompose(tree, g):
    """Per-node (cells, values) of the decomposition, each node merged on
    its own with np.unique and np.add.at into zeros."""
    n = len(tree)
    h2 = g.h * g.h
    flat_assign = g.assignment.ravel()
    flat_g = np.where(g.assignment >= 0, g.values, 0.0).ravel()
    sel = flat_assign >= 0
    own = np.zeros(n)
    np.add.at(own, flat_assign[sel], flat_g[sel] * h2)
    m = tc.accumulate_up(tree, own)
    b_cells = [None if tree.parent[t] < 0 else reference_snap_b_cells(tree, g, t)
               for t in range(n)]
    kids = [[] for _ in range(n)]
    for t in range(n):  # children by increasing index
        if tree.parent[t] >= 0:
            kids[tree.parent[t]].append(t)
    cells, values = [], []
    for t in range(n):
        own_cells = np.flatnonzero(flat_assign == t)
        parts_idx, parts_val = [own_cells], [flat_g[own_cells]]
        for s in kids[t]:
            parts_idx.append(b_cells[s])
            parts_val.append(np.full(len(b_cells[s]), m[s] * (1.0 / (len(b_cells[s]) * h2))))
        if tree.parent[t] >= 0:
            parts_idx.append(b_cells[t])
            parts_val.append(np.full(len(b_cells[t]), -m[t] * (1.0 / (len(b_cells[t]) * h2))))
        uniq, inv = np.unique(np.concatenate(parts_idx), return_inverse=True)
        acc = np.zeros(len(uniq))
        np.add.at(acc, inv, np.concatenate(parts_val))
        cells.append(uniq)
        values.append(acc)
    return cells, values


@pytest.mark.parametrize("which", ["tree5", "koch2_tree6"])
@pytest.mark.parametrize("data", ["random", "collar"])
def test_csr_matches_per_node_reference_bitwise(request, which, data):
    tree = request.getfixturevalue(which)
    grid = dc.decomposition_grid(tree)
    g = random_mean_zero(tree, grid, 7) if data == "random" else collar_probe(tree, grid)
    d = dc.c_decompose(tree, g)
    cells, values = reference_c_decompose(tree, g)
    assert d.ptr.tolist() == np.cumsum([0] + [len(c) for c in cells]).tolist()
    assert np.array_equal(d.cells, np.concatenate(cells))
    # the bytes, so the sign of every zero counts too
    assert d.values.tobytes() == np.concatenate(values).tobytes()
    flat = np.zeros(grid.values.size)
    for c, v in zip(cells, values):
        np.add.at(flat, c, v)
    assert d.reconstruct().tobytes() == flat.reshape(grid.dims).tobytes()


def assert_snap_is_the_face_rule(tree):
    """_snap_b_cells (outward rounding) against the per-node face rule; the
    snapped boxes are disjoint."""
    grid = dc.decomposition_grid(tree)
    ptr, boxes = dc._snap_b_cells(tree, grid)
    assert ptr[tree.root] == ptr[tree.root + 1]
    assert len(boxes) == len(np.unique(boxes))
    for t in np.flatnonzero(tree.parent >= 0):
        want = np.sort(reference_snap_b_cells(tree, grid, t))
        assert np.array_equal(boxes[ptr[t]:ptr[t + 1]], want)


SNAP_PRESETS = {"unit_square": {}, "l_shape": {}, "slit_square": {},
                "koch2": {"level": 2}, "koch3": {"level": 3}}
# at level 4 the slit square's two cubes do not touch and no Koch cube fits
UNBUILT_AT_4 = {"slit_square": ConnectivityError, "koch2": EmptyDecompositionError,
                "koch3": EmptyDecompositionError}


@pytest.mark.parametrize("level", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("preset", SNAP_PRESETS)
def test_snapped_boxes_are_the_face_rule_on_every_preset(preset, level):
    kw = SNAP_PRESETS[preset]
    dom = geometry.make_domain("koch_prefractal" if kw else preset, **kw)
    if level == 4 and preset in UNBUILT_AT_4:
        with pytest.raises(UNBUILT_AT_4[preset]):
            tc.build_tree(wt.whitney_decompose(dom, level))
        return
    assert_snap_is_the_face_rule(tc.build_tree(wt.whitney_decompose(dom, level)))


@settings(max_examples=20)
@given(star_polygons())
def test_snapped_boxes_are_the_face_rule_on_star_polygons(dom):
    assert_snap_is_the_face_rule(star_tree(dom))


@pytest.mark.parametrize("which", ["tree5", "koch2_tree6"])
def test_assignment_matches_painted_cubes(request, which):
    # every cube painted onto its 4 << (L - level) cells a side, then the mask
    tree = request.getfixturevalue(which)
    grid = dc.decomposition_grid(tree)
    lo, hi = tree.decomposition.spans()
    i0, j0 = dc.grid_layout(tree)[3]
    want = np.full(grid.dims, -1)
    for t in range(len(tree)):
        want[4 * lo[t, 0] - i0:4 * hi[t, 0] - i0, 4 * lo[t, 1] - j0:4 * hi[t, 1] - j0] = t
    want[~grid.mask] = -1
    assert np.array_equal(grid.assignment, want)


def test_box_escaping_the_grid_raises(tree5, grid5, monkeypatch):
    i0, j0 = dc._frame_offset(tree5, grid5)
    monkeypatch.setattr(dc, "_frame_offset", lambda tree, grid: (i0 + 10**6, j0))
    with pytest.raises(ParameterError, match="escapes the grid"):
        dc._snap_b_cells(tree5, grid5)


# each takes the tree and a grid that is not decomposition_grid(tree); the
# values handed to covered_mean_zero, which takes no tree, are laid out for
# the tree's own grid, so it can refuse only a grid without cube ids or of
# another shape
FOREIGN_GRID_CALLS = {
    "c_decompose": lambda tree, grid: dc.c_decompose(tree, grid),
    "collar_probe": lambda tree, grid: dc.collar_probe(tree, grid),
    "covered_mean_zero": lambda tree, grid: dc.covered_mean_zero(
        grid, np.ones(dc.grid_layout(tree)[2])),
    "solve_divergence": lambda tree, grid: dv.solve_divergence(tree, grid, 2.0, 0.0),
}


@pytest.mark.parametrize("call, foreign", [
    *((call, foreign) for call in FOREIGN_GRID_CALLS for foreign in ("make_grid", "other tree")),
    *((call, "other domain") for call in ("c_decompose", "collar_probe", "solve_divergence")),
])
def test_grid_of_another_layout_or_without_cube_ids_raises(square_tree6, grid5, l_shape,
                                                          call, foreign):
    h, origin, dims, _ = dc.grid_layout(square_tree6)
    if foreign == "make_grid":  # the same layout, but no cube ids
        grid = F.make_grid(square_tree6.decomposition.domain, h, origin=origin)
    elif foreign == "other tree":
        grid = grid5
    else:  # the L-shape shares the square's bounding box, so its layout too
        grid = dc.decomposition_grid(tc.build_tree(wt.whitney_decompose(l_shape, 6)))
        assert (grid.h, grid.origin, grid.dims) == (h, origin, dims)
    with pytest.raises(ParameterError):
        FOREIGN_GRID_CALLS[call](square_tree6, grid)
