import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings

from conftest import (clip_by_side, csr_lists, dense_parity, dense_point_edge_dist_sq,
                      expanded_boxes, star_polygons)
from whardy import geometry as geo
from whardy import whitney as wt
from whardy.errors import EmptyDecompositionError, ParameterError, StructureError


def sandwich_ok(dec):
    sides = dec.sides
    lower = np.all(dec.dist_sq >= 2.0 * sides * sides)
    upper = np.all(dec.dist <= 4.0 * sides * math.sqrt(2.0) + 1e-12)
    return bool(lower and upper)


@pytest.mark.parametrize("preset,kw", [
    ("unit_square", {}),
    ("l_shape", {}),
    ("slit_square", {}),
    ("koch_prefractal", {"level": 2}),
])
def test_sandwich_all_presets(preset, kw):
    dom = geo.make_domain(preset, **kw)
    dec = wt.whitney_decompose(dom, 6)
    assert sandwich_ok(dec)


def test_cube_count_matches_enumeration_oracle(unit_square, square_dec6):
    # oracle: test every dyadic cube up to the level for maximal acceptability
    dec = square_dec6
    frame = dec.frame
    origin = np.asarray(frame.origin)
    every_edge = np.arange(unit_square.n_edges)
    every_edge_ptr = np.array([0, unit_square.n_edges])

    def acceptable(level, ix, iy):
        side = frame.cube_side(level)
        lo = origin + np.array([ix, iy]) * side
        hi = lo + side
        center = lo + side / 2.0
        d2 = wt.boxes_boundary_dist_sq(unit_square, lo[None, :], hi[None, :],
                                       every_edge_ptr, every_edge)[0][0]
        inside = bool(dense_parity(unit_square, center[None, :])[0])
        inside &= bool(geo.boundary_distances(unit_square, center[None, :])[0] > geo.BOUNDARY_EPS)
        return inside and d2 >= 2.0 * side * side

    expected = set()
    for level in range(0, 7):
        n = 2**level
        for ix in range(n):
            for iy in range(n):
                if acceptable(level, ix, iy) and (
                    level == 0 or not acceptable(level - 1, ix // 2, iy // 2)
                ):
                    expected.add((level, ix, iy))
    got = {(int(l), int(i), int(j)) for l, (i, j) in zip(dec.levels, dec.indices)}
    assert got == expected


def test_area_bound(square_dec6, unit_square):
    total = float((square_dec6.sides ** 2).sum())
    assert total <= geo.signed_area(unit_square.vertices) + 1e-12


def test_neighbors_and_ratios(square_dec6):
    dec = square_dec6
    sides = dec.sides
    nb, face = csr_lists(dec.neighbors), csr_lists(dec.face_neighbors)
    seen = set()
    for t in range(len(dec)):
        for s in nb[t]:
            assert t in nb[s]  # symmetry
            seen.add(round(float(sides[s] / sides[t]), 12))
        assert set(face[t]) <= set(nb[t])
    assert seen <= {0.25, 0.5, 1.0, 2.0, 4.0}


def test_face_vs_corner_contact(square_dec6):
    dec = square_dec6
    L = int(dec.levels.max())
    lo, hi = dec.spans(L)
    nb, face = csr_lists(dec.neighbors), csr_lists(dec.face_neighbors)
    corner_pairs = 0
    for t in range(len(dec)):
        for s in nb[t]:
            overlap_deg = sum(
                int(max(lo[t][a], lo[s][a]) == min(hi[t][a], hi[s][a]))
                for a in range(2)
            )
            if s in face[t]:
                assert overlap_deg == 1  # shares a 1-dimensional face
            else:
                assert overlap_deg == 2  # corner contact only
                corner_pairs += 1
    assert corner_pairs > 0


def test_expanded_overlap_iff_neighbors(unit_square):
    dec = wt.whitney_decompose(unit_square, 5)
    boxes = expanded_boxes(dec)
    nb = csr_lists(dec.neighbors)
    for t in range(len(dec)):
        for s in range(t + 1, len(dec)):
            (tlo, thi), (slo, shi) = boxes[t], boxes[s]
            overlap = (
                tlo[0] < shi[0]
                and slo[0] < thi[0]
                and tlo[1] < shi[1]
                and slo[1] < thi[1]
            )
            assert overlap == (s in nb[t])


def test_overlap_bound(square_dec6):
    dec = square_dec6
    xs = np.linspace(0.01, 0.99, 40)
    pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    counts = np.zeros(len(pts), dtype=int)
    for lo, hi in expanded_boxes(dec):
        sel = (
            (pts[:, 0] >= lo[0])
            & (pts[:, 0] <= hi[0])
            & (pts[:, 1] >= lo[1])
            & (pts[:, 1] <= hi[1])
        )
        counts[sel] += 1
    assert counts.max() <= 12**2


def test_determinism(unit_square):
    a = wt.whitney_decompose(unit_square, 5)
    b = wt.whitney_decompose(unit_square, 5)
    assert np.array_equal(a.levels, b.levels)
    assert np.array_equal(a.indices, b.indices)
    assert all(np.array_equal(x, y) for x, y in zip(a.neighbors, b.neighbors))


def test_covering_away_from_collar(square_dec6, unit_square):
    dec = square_dec6
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 1, size=(400, 2))
    d = geo.boundary_distances(unit_square, pts)
    far = pts[d >= dec.collar_width]
    assert len(far) > 0
    for p in far:
        assert dec.locate(p) is not None


def test_find_exact_and_out_of_lattice(square_dec6):
    dec = square_dec6
    lev, i, j = dec.levels, dec.indices[:, 0], dec.indices[:, 1]
    assert np.array_equal(dec.find(lev, i, j), np.arange(len(dec)))
    side = 1 << lev
    for di, dj in ((side, 0), (0, side), (-i - 1, 0), (0, -j - 1)):
        assert (dec.find(lev, i + di, j + dj) == -1).all()
    assert (dec.find(lev + 1, 2 * i, 2 * j) == -1).all() and (dec.find(-1, 0, 0) == -1).all()
    assert dec.locate((1.6, 0.5)) is None and dec.locate((-0.6, 0.5)) is None


def per_level_locate(dec, point):
    """The cube holding the point, looked up level by level in its own cell."""
    for lev in np.unique(dec.levels):
        s = dec.frame.cube_side(int(lev))
        i = math.floor((point[0] - dec.frame.origin[0]) / s)
        j = math.floor((point[1] - dec.frame.origin[1]) / s)
        t = int(dec.find(lev, i, j))
        if t >= 0:
            return t
    return None


@pytest.mark.parametrize("preset, kw", [("slit_square", {}), ("koch_prefractal", {"level": 3})])
def test_locate_and_owner_match_the_per_level_lookup(preset, kw):
    dec = wt.whitney_decompose(geo.make_domain(preset, **kw), 6)
    origin, size = np.array(dec.frame.origin), dec.frame.size
    rng = np.random.default_rng(1)
    # random points in and around the frame, and every 7th cube's low corner,
    # which its half-open box holds
    corners = origin + dec.indices[::7] * dec.sides[::7, None]
    pts = np.concatenate([rng.uniform(origin - size / 4, origin + 1.25 * size, (2000, 2)),
                          corners])
    want = [per_level_locate(dec, p) for p in pts]
    assert want[2000:] == list(range(0, len(dec), 7))
    assert [dec.locate(p) for p in pts] == want
    cells = np.floor((pts - origin) / dec.frame.cube_side(int(dec.levels.max())))
    got = dec.owner(cells[:, 0].astype(np.int64), cells[:, 1].astype(np.int64))
    assert got.tolist() == [-1 if t is None else t for t in want]


def test_empty_decomposition_error():
    sliver = geo.PolygonalDomain(
        np.array([[0, 0], [1.0, 0], [1.0, 0.001], [0, 0.001]]), name="sliver"
    )
    with pytest.raises(EmptyDecompositionError):
        wt.whitney_decompose(sliver, 4)


def test_max_level_precondition(unit_square):
    with pytest.raises(ParameterError):
        wt.whitney_decompose(unit_square, 1)


def test_max_level_bound(unit_square):
    # 2 * 29 + bit_length(29) = 63 key bits; the check fires before any level is built
    assert wt.MAX_LEVEL == wt.KEY_LEVEL_LIMIT == 29
    assert wt.SLACK_LEVEL_LIMIT == 32  # the centre-bound slack covers every level
    with pytest.raises(ParameterError, match="max_level must be <= 29: cube keys overflow"):
        wt.whitney_decompose(unit_square, wt.MAX_LEVEL + 1)


def test_max_level_message_names_the_key_and_slack_limits(unit_square):
    with pytest.raises(ParameterError) as err:
        wt.whitney_decompose(unit_square, 30)
    assert str(err.value) == (
        "max_level must be <= 29: cube keys overflow int64 beyond level 29, and the "
        "centre-bound slack no longer covers float rounding beyond level 32")


def test_json_roundtrip(square_dec6, unit_square, slit_square, koch2):
    for dom, dec in ((unit_square, square_dec6), (slit_square, wt.whitney_decompose(slit_square, 6)),
                     (koch2, wt.whitney_decompose(koch2, 6))):
        back = wt.decomposition_from_json(wt.decomposition_to_json(dec), dom)
        assert np.array_equal(back.levels, dec.levels)
        assert np.array_equal(back.indices, dec.indices)
        # bit for bit: every float is written with repr
        assert back.dist.dtype == dec.dist.dtype and back.dist.tobytes() == dec.dist.tobytes()
        assert back.dist_sq.tobytes() == (dec.dist * dec.dist).tobytes()
        assert back.frame == dec.frame and back.max_level == dec.max_level
        for name in ("origin", "size"):
            assert np.asarray(getattr(back.frame, name)).tobytes() == \
                np.asarray(getattr(dec.frame, name)).tobytes()
        for csr in ("neighbors", "face_neighbors"):
            for got, want in zip(getattr(back, csr), getattr(dec, csr)):
                assert got.dtype == np.int64 and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# dense oracle: every candidate box and center against every polygon edge,
# with the construction's per-pair arithmetic and no edge culling


def dense_box_dist_sq(lo, hi, edges):
    """(M, E) squared distances of every box to every edge."""
    a, b = edges[:, 0], edges[:, 1]
    d = b - a
    corners = np.stack([np.stack([lo[:, 0], lo[:, 1]], axis=1),
                        np.stack([hi[:, 0], lo[:, 1]], axis=1),
                        np.stack([hi[:, 0], hi[:, 1]], axis=1),
                        np.stack([lo[:, 0], hi[:, 1]], axis=1)], axis=1)
    ab2 = (d * d).sum(axis=1)
    ab2 = np.where(ab2 == 0, 1.0, ab2)
    ap = corners[:, :, None, :] - a[None, None, :, :]
    t = np.clip((ap * d[None, None]).sum(axis=3) / ab2, 0.0, 1.0)
    diff = ap - t[..., None] * d[None, None]
    d2 = (diff * diff).sum(axis=3).min(axis=1)
    for pt in (a, b):
        dx = np.maximum(np.maximum(lo[:, None, 0] - pt[None, :, 0], 0.0), pt[None, :, 0] - hi[:, None, 0])
        dy = np.maximum(np.maximum(lo[:, None, 1] - pt[None, :, 1], 0.0), pt[None, :, 1] - hi[:, None, 1])
        d2 = np.minimum(d2, dx * dx + dy * dy)
    return np.where(clip_by_side(a[None], b[None], lo[:, None], hi[:, None]), 0.0, d2)


def dense_center_dist(points, edges):
    return np.sqrt(dense_point_edge_dist_sq(points, edges).min(axis=1))


def dense_whitney(dom, max_level):
    """(levels, indices, dist_sq) of the maximal Whitney cubes, testing every
    active cube against every edge."""
    frame = wt.frame_for_domain(dom)
    origin = np.asarray(frame.origin)
    chunk = max(1, 200_000 // dom.n_edges)
    acc = []
    active = np.zeros((1, 2), dtype=np.int64)
    for level in range(max_level + 1):
        side = frame.cube_side(level)
        lo = origin + active * side
        hi, centers = lo + side, lo + side / 2.0
        d2, cdist = np.empty(len(lo)), np.empty(len(lo))
        for i in range(0, len(lo), chunk):
            d2[i:i + chunk] = dense_box_dist_sq(lo[i:i + chunk], hi[i:i + chunk],
                                                dom.edges).min(axis=1)
            cdist[i:i + chunk] = dense_center_dist(centers[i:i + chunk], dom.edges)
        inside = dense_parity(dom, centers) & (cdist > geo.BOUNDARY_EPS)
        accept = inside & (d2 >= 2.0 * side * side)
        acc += [(level, ij, v) for ij, v in zip(active[accept].tolist(), d2[accept])]
        split = ~accept & ~(~inside & (d2 > 0.0))
        offs = np.array([[0, 0], [1, 0], [0, 1], [1, 1]])
        active = (active[split][:, None] * 2 + offs[None]).reshape(-1, 2)
        if not len(active):
            break
    acc.sort(key=lambda c: (c[0], c[1][0], c[1][1]))
    return (np.array([c[0] for c in acc], dtype=np.int64),
            np.array([c[1] for c in acc], dtype=np.int64),
            np.array([c[2] for c in acc]))


def assert_matches_dense(dom, max_level):
    dec = wt.whitney_decompose(dom, max_level)
    levels, indices, dist_sq = dense_whitney(dom, max_level)
    assert dec.levels.tobytes() == levels.tobytes()
    assert dec.indices.tobytes() == indices.tobytes()
    assert dec.dist_sq.tobytes() == dist_sq.tobytes()
    return dec


def assert_truncations_are_prefixes(dom, levels, deep):
    """Each build at a level L in ``levels`` is bitwise the first rows of the
    build at ``deep``, and the deeper build's next row is a cube below level L."""
    full = wt.whitney_decompose(dom, deep)
    for L in levels:
        try:
            dec = wt.whitney_decompose(dom, L)
        except EmptyDecompositionError:  # the empty prefix
            assert full.levels[0] > L
            continue
        n = len(dec)
        for name in ("levels", "indices", "dist_sq"):
            assert getattr(dec, name).tobytes() == getattr(full, name)[:n].tobytes(), (L, name)
        assert n < len(full) and full.levels[n] > L


@pytest.mark.parametrize("preset,kw", [
    ("unit_square", {}),
    ("l_shape", {}),
    ("slit_square", {}),
    ("koch_prefractal", {"level": 2}),
])
def test_truncations_are_prefixes_of_a_deeper_build(preset, kw):
    assert_truncations_are_prefixes(geo.make_domain(preset, **kw), range(4, 9), 9)


@pytest.mark.parametrize("preset,kw", [
    ("unit_square", {}),
    ("l_shape", {}),
    ("slit_square", {}),
    ("koch_prefractal", {"level": 2}),
])
def test_truncate_equals_the_build_at_its_level(preset, kw):
    dom = geo.make_domain(preset, **kw)
    full = wt.whitney_decompose(dom, 8)
    for L in range(4, 9):
        try:
            want = wt.whitney_decompose(dom, L)
        except EmptyDecompositionError as exc:  # Koch 2 at L4
            with pytest.raises(EmptyDecompositionError, match=re.escape(str(exc))):
                full.truncate(L)
            continue
        got = full.truncate(L)
        assert (got is full) == (L == full.max_level)
        assert got.max_level == want.max_level == L and got.frame == want.frame
        for name in ("levels", "indices", "keys", "dist", "dist_sq"):
            ref = getattr(want, name)
            assert getattr(got, name).dtype == ref.dtype, name
            assert getattr(got, name).tobytes() == ref.tobytes(), (L, name)
        for name in ("neighbors", "face_neighbors"):
            assert csr_lists(getattr(got, name)) == csr_lists(getattr(want, name)), (L, name)
        assert got.finest_level == want.finest_level


def test_truncate_raises_what_the_build_would(unit_square):
    full = wt.whitney_decompose(unit_square, 6)
    with pytest.raises(ParameterError, match="max_level must be >= 2"):
        full.truncate(1)
    with pytest.raises(ParameterError, match="exceeds the decomposition's max_level 6"):
        full.truncate(7)
    # the unit square's first cubes lie at level 4
    for L in (2, 3):
        with pytest.raises(EmptyDecompositionError) as built:
            wt.whitney_decompose(unit_square, L)
        with pytest.raises(EmptyDecompositionError, match=re.escape(str(built.value))):
            full.truncate(L)


@settings(max_examples=30, deadline=None)
@given(star_polygons())
def test_truncations_are_prefixes_on_star_polygons(dom):
    try:
        assert_truncations_are_prefixes(dom, range(2, 7), 7)
    except EmptyDecompositionError:  # raised by the deepest build only
        assume(False)


@pytest.mark.parametrize("preset,kw,level", [
    ("unit_square", {}, 9),
    ("l_shape", {}, 8),
    ("slit_square", {}, 9),
    ("koch_prefractal", {"level": 2}, 7),
    ("koch_prefractal", {"level": 3}, 8),
    ("koch_prefractal", {"level": 4}, 7),
])
def test_culled_construction_matches_dense_oracle(preset, kw, level):
    assert_matches_dense(geo.make_domain(preset, **kw), level)


@settings(max_examples=40, deadline=1000)
@given(star_polygons())
def test_culled_construction_matches_dense_oracle_on_star_polygons(dom):
    try:
        dec = assert_matches_dense(dom, 6)
    except EmptyDecompositionError:
        assume(False)
    assert_adjacency_matches_brute_force(dec)
    assert sandwich_ok(dec)


@pytest.mark.parametrize("preset,kw", [("koch_prefractal", {"level": 3}), ("slit_square", {})])
def test_construction_in_chunks_of_7_pairs(monkeypatch, preset, kw):
    """Chunks of 7 (cube, edge) pairs (BLOCK = 56) split the candidate lists
    of most cubes, the frame's list of every edge among them; at BLOCK = 7
    a chunk is one pair."""
    dom = geo.make_domain(preset, **kw)
    want = wt.whitney_decompose(dom, 7)
    for block in (56, 7):
        monkeypatch.setattr(geo, "BLOCK", block)
        got = wt.whitney_decompose(dom, 7)
        for name in ("levels", "indices", "dist_sq"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_decomposition_at_the_coordinate_limit():
    """Squared distances of a square with corners at +-COORD_LIMIT stay
    finite, so the construction runs without overflow."""
    c = geo.COORD_LIMIT
    dom = geo.PolygonalDomain(np.array([[-c, -c], [c, -c], [c, c], [-c, c]]))
    dec = wt.whitney_decompose(dom, 5)
    assert len(dec) and np.isfinite(dec.dist_sq).all() and sandwich_ok(dec)


# ---------------------------------------------------------------------------
# the pruned distance stage against the dense per-pair oracle


def assert_pruned_stage_exact(dom, lo, hi, rng=None):
    """``boxes_boundary_dist_sq`` against every (box, edge) pair of the dense
    oracle: each per-box minimum bitwise, and no per-pair value above the
    exact one, so the Whitney candidate lists may only grow. With ``rng``
    each box gets a random non-empty subset of the edges, as candidate
    lists do. The edge nearest each centre is the list's first one at the
    least squared centre distance. Returns the per-pair values and the
    exact ones."""
    exact = dense_box_dist_sq(lo, hi, dom.edges)
    keep = np.ones(exact.shape, dtype=bool)
    if rng is not None:
        keep = rng.random(exact.shape) < 0.5
        keep[np.arange(len(lo)), rng.integers(0, dom.n_edges, len(lo))] = True
    owner, cand = np.nonzero(keep)
    ptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    d2, pair, near = wt.boxes_boundary_dist_sq(dom, lo, hi, ptr, cand)
    want = exact[owner, cand]
    assert d2.tobytes() == np.minimum.reduceat(want, ptr[:-1]).tobytes()
    assert (pair <= want).all()
    centre = dense_point_edge_dist_sq((lo + hi) / 2.0, dom.edges)
    assert np.array_equal(near, np.where(keep, centre, np.inf).argmin(axis=1))
    return pair, want


def cornered_boxes(points, sides):
    """The four boxes of each side that have a corner exactly at each point."""
    p = np.repeat(points, len(sides), axis=0)
    s = np.tile(sides, len(points))[:, None]
    boxes = [(np.where(q, p - s, p), np.where(q, p, p + s))
             for q in ([0, 0], [1, 0], [0, 1], [1, 1])]
    return np.concatenate([b[0] for b in boxes]), np.concatenate([b[1] for b in boxes])


def points_on_edges(dom, t):
    """The points a + t (b - a) of every edge [a, b], for each t."""
    a, b = dom.edges[:, None, 0], dom.edges[:, None, 1]
    return (a + np.asarray(t)[None, :, None] * (b - a)).reshape(-1, 2)


SIDES = np.concatenate([2.0 ** -np.arange(1, 30, 4), [0.3, 0.0137, 1e-5, 3e-9]])


def test_pruned_stage_with_centres_one_half_diagonal_from_an_edge():
    """The diamond's edges are perpendicular to the diagonal of a box
    cornered on them, so the centre lies one half-diagonal from the edge,
    up to rounding; the other two boxes per point have the edge through two
    corners."""
    dom = geo.PolygonalDomain(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]))
    t = np.random.default_rng(5).uniform(0.02, 0.98, 150)
    assert_pruned_stage_exact(dom, *cornered_boxes(points_on_edges(dom, t), SIDES))


@pytest.mark.parametrize("preset", ["unit_square", "slit_square"])
def test_pruned_stage_with_edges_through_corners_and_along_sides(preset):
    dom = geo.make_domain(preset)
    t = np.concatenate([[0.0, 0.25, 0.5], np.random.default_rng(6).uniform(0, 1, 40)])
    lo, hi = cornered_boxes(points_on_edges(dom, t), SIDES)
    assert_pruned_stage_exact(dom, lo, hi)
    assert_pruned_stage_exact(dom, lo, hi, rng=np.random.default_rng(7))


@pytest.mark.parametrize("preset,kw", [("koch_prefractal", {"level": 3}), ("slit_square", {}),
                                       ("l_shape", {})])
def test_pruned_stage_with_boxes_cornered_on_vertices(preset, kw):
    dom = geo.make_domain(preset, **kw)
    lo, hi = cornered_boxes(dom.vertices, SIDES[::2])
    pair, want = assert_pruned_stage_exact(dom, lo, hi)
    assert_pruned_stage_exact(dom, lo, hi, rng=np.random.default_rng(8))
    if dom.n_edges > 6:
        assert (pair < want).any()  # the bound stands in for pruned pairs


def test_pruned_stage_at_the_coordinate_limit():
    c = geo.COORD_LIMIT
    dom = geo.PolygonalDomain(np.array([[-c, -c], [c, -c], [c, c], [-c, c]]))
    t = np.concatenate([[0.0, 0.5], np.random.default_rng(9).uniform(0, 1, 20)])
    lo, hi = cornered_boxes(points_on_edges(dom, t), c * SIDES)
    pair, _ = assert_pruned_stage_exact(dom, lo, hi)
    assert np.isfinite(pair).all()


def test_pruned_stage_in_chunks_of_7_pairs(monkeypatch, koch2):
    lo, hi = cornered_boxes(points_on_edges(koch2, [0.0, 0.3]), SIDES[::3])
    want = assert_pruned_stage_exact(koch2, lo, hi, rng=np.random.default_rng(10))[0]
    for block in (56, 7):  # chunks of 7 pairs, then of one
        monkeypatch.setattr(geo, "BLOCK", block)
        got = assert_pruned_stage_exact(koch2, lo, hi, rng=np.random.default_rng(10))[0]
        assert got.tobytes() == want.tobytes()


@settings(max_examples=30)
@given(star_polygons())
def test_pruned_stage_on_star_polygons(dom):
    pts = np.concatenate([dom.vertices, points_on_edges(dom, [0.37, 0.5])])
    lo, hi = cornered_boxes(pts, SIDES[::2])
    assert_pruned_stage_exact(dom, lo, hi)
    assert_pruned_stage_exact(dom, lo, hi, rng=np.random.default_rng(11))


# ---------------------------------------------------------------------------
# the candidate lists' margin against per-pair values rounded upward


def assert_lists_keep_raised_pairs(monkeypatch, dom, max_level):
    """Build with every per-pair value of ``boxes_boundary_dist_sq`` raised
    to 0.9 s above the dense oracle's exact value (s = r * CENTRE_SLACK, r
    the box's half-diagonal), the most rounding the slack is meant to
    absorb; per-box minima are kept. Every child's list must still hold
    each edge e of its parent P's list that the oracle puts within
    d(P) + diam(P), and the cubes must keep their bits."""
    want = wt.whitney_decompose(dom, max_level)
    stage = wt.boxes_boundary_dist_sq
    frame = wt.frame_for_domain(dom)
    origin = np.asarray(frame.origin)
    E = dom.n_edges
    required = np.zeros((0, 3), dtype=np.int64)  # (i, j, edge) the exact rule keeps
    level = 0

    def raised(dom, lo, hi, ptr, cand):
        nonlocal required, level
        d2, _, near = stage(dom, lo, hi, ptr, cand)
        side = frame.cube_side(level)
        ij = np.rint((lo - origin) / side).astype(np.int64)
        owner = np.repeat(np.arange(len(lo)), np.diff(ptr))
        n = 1 << level  # lattice width at this level
        have = (ij[owner, 0] * n + ij[owner, 1]) * E + cand
        if level:
            kids = [(2 * required[:, 0] + a, 2 * required[:, 1] + b)
                    for a in (0, 1) for b in (0, 1)]
            cubes = ij[:, 0] * n + ij[:, 1]
            for ci, cj in kids:
                split = np.isin(ci * n + cj, cubes)  # only split parents have children
                key = (ci * n + cj) * E + required[:, 2]
                assert np.isin(key[split], have).all()
        exact = np.concatenate([dense_box_dist_sq(lo[k:k + 256], hi[k:k + 256], dom.edges)
                                for k in range(0, len(lo), 256)])[owner, cand]
        reach = np.sqrt(d2) + side * math.sqrt(2.0)
        keep = exact <= (reach * reach)[owner]
        required = np.column_stack([ij[owner[keep]], cand[keep]])
        slack = side * math.sqrt(0.5) * wt.CENTRE_SLACK
        level += 1
        return d2, (np.sqrt(exact) + 0.9 * slack) ** 2, near

    monkeypatch.setattr(wt, "boxes_boundary_dist_sq", raised)
    got = wt.whitney_decompose(dom, max_level)
    for name in ("levels", "indices", "dist_sq"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_lists_keep_a_45_degree_edge_exactly_one_diameter_away(monkeypatch):
    """The cube P = [0, 1/8]^2 (level 4 of the frame [-1/2, 3/2]^2) meets
    the boundary, and the edge from (3/8, 1/8) to (1/8, 3/8) lies exactly
    diam(P) = sqrt(2)/8 from P's corner (1/8, 1/8), in dyadic arithmetic.
    So the exact rule keeps it, and a value a fraction of s above it passes
    the bare bound (d(P) + diam(P))^2."""
    dom = geo.PolygonalDomain(np.array([
        [0, 0], [1, 0], [1, 1], [0.625, 1], [0.375, 0.125], [0.125, 0.375], [0, 0.625]]))
    dist = wt._box_segment_gap_sq(np.array([0.375, 0.125]), np.array([0.125, 0.375]),
                                  np.zeros(2), np.full(2, 0.125))
    assert dist == 2 * 0.125**2
    assert wt.frame_for_domain(dom) == wt.Frame((-0.5, -0.5), 2.0)
    assert_lists_keep_raised_pairs(monkeypatch, dom, 6)


@pytest.mark.parametrize("preset,kw,level", [
    ("unit_square", {}, 8),
    ("l_shape", {}, 8),
    ("slit_square", {}, 8),
    ("koch_prefractal", {"level": 3}, 7),
])
def test_lists_keep_raised_pairs_on_presets(monkeypatch, preset, kw, level):
    assert_lists_keep_raised_pairs(monkeypatch, geo.make_domain(preset, **kw), level)


@settings(max_examples=25)
@given(star_polygons())
def test_lists_keep_raised_pairs_on_star_polygons(dom):
    with pytest.MonkeyPatch.context() as monkeypatch:
        try:
            assert_lists_keep_raised_pairs(monkeypatch, dom, 6)
        except EmptyDecompositionError:
            assume(False)


def assert_adjacency_matches_brute_force(dec):
    lo, hi = dec.spans()
    alo = np.maximum(lo[:, None], lo[None])
    ahi = np.minimum(hi[:, None], hi[None])
    deg = alo == ahi
    meet = (alo <= ahi).all(axis=2)
    touch = meet & deg.any(axis=2)
    face = meet & (deg[..., 0] != deg[..., 1])
    for (ptr, idx), want in ((dec.neighbors, touch), (dec.face_neighbors, face)):
        assert np.array_equal(ptr, np.concatenate([[0], np.cumsum(want.sum(axis=1))]))
        assert np.array_equal(idx, np.nonzero(want)[1])
    assert len(dec.neighbors[1]) > len(dec.face_neighbors[1]) > 0


def test_neighbors_match_brute_force(koch3):
    assert_adjacency_matches_brute_force(wt.whitney_decompose(koch3, 7))


def test_neighbors_two_levels_apart_match_brute_force(unit_square):
    # a level-2 cube ringed by level-4 cubes, two level-3 cubes beside the ring
    cubes = [(2, 1, 1), (3, 5, 1), (3, 1, 5)]
    cubes += [(4, x, y) for x in range(3, 9) for y in range(3, 9) if x in (3, 8) or y in (3, 8)]
    cubes.sort()
    dec = wt.WhitneyDecomposition(
        domain=unit_square,
        frame=wt.Frame((-0.5, -0.5), 2.0),
        max_level=4,
        levels=np.array([c[0] for c in cubes]),
        indices=np.array([c[1:] for c in cubes]),
        dist=np.full(len(cubes), 0.1),
        dist_sq=np.full(len(cubes), 0.01),
    )
    ptr = dec.neighbors[0]
    assert ptr[1] - ptr[0] == 20  # the ring touches the level-2 cube
    assert_adjacency_matches_brute_force(dec)


@pytest.mark.parametrize("levels,indices,match", [
    ([4, 4], [[8, 7], [7, 7]], "sorted"),
    ([4, 4], [[7, 7], [7, 7]], "distinct"),
    ([2, 4], [[4, 0], [1, 1]], "lattice"),
])
def test_cube_order_invariant_checked(unit_square, levels, indices, match):
    with pytest.raises(StructureError, match=match):
        wt.WhitneyDecomposition(
            domain=unit_square,
            frame=wt.Frame((-0.5, -0.5), 2.0),
            max_level=4,
            levels=np.array(levels),
            indices=np.array(indices),
            dist=np.array([0.2, 0.2]),
            dist_sq=np.array([0.04, 0.04]),
        )


def test_overflowing_cube_keys_rejected(unit_square):
    with pytest.raises(StructureError, match="level 30 exceeds 29"):
        wt.WhitneyDecomposition(
            domain=unit_square,
            frame=wt.Frame((-0.5, -0.5), 2.0),
            max_level=30,
            levels=np.array([30]),
            indices=np.array([[0, 0]]),
            dist=np.array([0.2]),
            dist_sq=np.array([0.04]),
        )
