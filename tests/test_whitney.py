import math

import numpy as np
import pytest
from hypothesis import assume, given, settings

from conftest import expanded_boxes, star_polygons
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
        inside = geo.contains(unit_square, center)
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
    nb, face = wt._csr_lists(dec.neighbors), wt._csr_lists(dec.face_neighbors)
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
    nb, face = wt._csr_lists(dec.neighbors), wt._csr_lists(dec.face_neighbors)
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
    nb = wt._csr_lists(dec.neighbors)
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
    assert wt.MAX_LEVEL == wt.KEY_LEVEL_LIMIT == wt.WIDENING_LEVEL_LIMIT == 29
    with pytest.raises(ParameterError, match="max_level must be <= 29: cube keys overflow"):
        wt.whitney_decompose(unit_square, wt.MAX_LEVEL + 1)


def test_json_roundtrip(square_dec6, unit_square):
    text = wt.decomposition_to_json(square_dec6)
    back = wt.decomposition_from_json(text, unit_square)
    assert np.array_equal(back.levels, square_dec6.levels)
    assert np.array_equal(back.indices, square_dec6.indices)
    for csr in ("neighbors", "face_neighbors"):
        for got, want in zip(getattr(back, csr), getattr(square_dec6, csr)):
            assert got.dtype == np.int64 and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# dense oracle: every candidate box and center against every polygon edge,
# with the construction's per-pair arithmetic and no edge culling


def dense_clip(edges, los, his):
    p, q = edges[:, 0], edges[:, 1]
    d = q - p
    M, E = len(los), len(edges)
    t0, t1 = np.zeros((M, E)), np.ones((M, E))
    alive = np.ones((M, E), dtype=bool)
    for axis in range(2):
        p0 = p[None, :, axis]
        dd = np.broadcast_to(d[None, :, axis], (M, E))
        for sign, bound in ((-1.0, los[:, axis][:, None]), (1.0, his[:, axis][:, None])):
            num = sign * (bound - p0)
            den = sign * dd
            par = den == 0
            alive &= ~(par & (num < 0))
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.where(par, 0.0, num / den)
            t0 = np.where(~par & (den < 0), np.maximum(t0, t), t0)
            t1 = np.where(~par & (den > 0), np.minimum(t1, t), t1)
    return alive, t0, t1


def dense_box_dist_sq(lo, hi, edges):
    a, b = edges[:, 0], edges[:, 1]
    d = b - a
    alive, t0, t1 = dense_clip(edges, lo, hi)
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
    return np.where(alive & (t0 <= t1), 0.0, d2).min(axis=1)


def dense_center_dist(points, edges):
    a, ab = edges[:, 0], edges[:, 1] - edges[:, 0]
    ap = points[:, None, :] - a[None]
    denom = (ab * ab).sum(axis=1)
    denom = np.where(denom == 0, 1.0, denom)
    t = np.clip((ap * ab[None]).sum(axis=2) / denom, 0.0, 1.0)
    diff = ap - t[:, :, None] * ab[None]
    return np.sqrt((diff * diff).sum(axis=2).min(axis=1))


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
            d2[i:i + chunk] = dense_box_dist_sq(lo[i:i + chunk], hi[i:i + chunk], dom.edges)
            cdist[i:i + chunk] = dense_center_dist(centers[i:i + chunk], dom.edges)
        inside = geo.contains_many(dom, centers, dist=cdist)
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


@settings(max_examples=40, deadline=1000, derandomize=True, database=None)
@given(star_polygons())
def test_culled_construction_matches_dense_oracle_on_star_polygons(dom):
    try:
        dec = assert_matches_dense(dom, 6)
    except EmptyDecompositionError:
        assume(False)
    assert_adjacency_matches_brute_force(dec)
    assert sandwich_ok(dec)


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
