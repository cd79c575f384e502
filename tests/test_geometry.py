import ast
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (clip_by_side, dense_parity, dense_point_edge_dist_sq, local_inside,
                      star_polygons)
from whardy import fields
from whardy import geometry as geo
from whardy import inequalities as iq
from whardy.errors import ParameterError


def seg_dist(p, a, b):
    # independent point-to-segment distance for oracle checks
    p, a, b = (np.asarray(v, dtype=float) for v in (p, a, b))
    ab = b - a
    t = float(np.dot(p - a, ab) / np.dot(ab, ab))
    t = min(1.0, max(0.0, t))
    return float(np.linalg.norm(p - (a + t * ab)))


def test_presets_basic(unit_square, l_shape, slit_square):
    assert unit_square.n_edges == 4
    assert np.allclose(unit_square.vertices, [[0, 0], [1, 0], [1, 1], [0, 1]])
    assert l_shape.n_edges == 6
    assert slit_square.n_edges == 7
    assert geo.signed_area(slit_square.vertices) == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("level,edges", [(0, 3), (1, 12), (2, 48), (3, 192)])
def test_koch_edge_count(level, edges):
    dom = geo.make_domain("koch_prefractal", level=level)
    assert dom.n_edges == edges


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_koch_perimeter(level):
    dom = geo.make_domain("koch_prefractal", level=level, side=1.5)
    expected = 3 * 1.5 * (4.0 / 3.0) ** level
    assert geo.perimeter(dom) == pytest.approx(expected, rel=1e-9)


def test_bad_presets():
    with pytest.raises(ParameterError):
        geo.make_domain("heptagon")
    with pytest.raises(ParameterError):
        geo.make_domain("koch_prefractal", level=-1)
    triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]])
    with mock.patch.object(geo, "_koch_vertices", return_value=triangle) as build:
        geo.make_domain("koch_prefractal", level=geo.MAX_KOCH_LEVEL)
        with pytest.raises(ParameterError, match="level must be an integer from 0 to 9"):
            geo.make_domain("koch_prefractal", level=10)
    assert build.call_count == 1  # level 10 is rejected before any vertex is built
    with pytest.raises(ParameterError):
        geo.make_domain("unit_square", side=0.0)
    with pytest.raises(ParameterError):
        geo.make_domain("slit_square", aperture=0.9)
    geo.make_domain("unit_square", side=geo.COORD_LIMIT)
    with pytest.raises(ParameterError, match="coordinates must lie within"):
        geo.make_domain("unit_square", side=1.5 * geo.COORD_LIMIT)
    with pytest.raises(ParameterError, match="coordinates must lie within"):
        geo.PolygonalDomain(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, -2e150]]))


def test_zero_area_has_its_own_message():
    # the square of side 1e-200 is counter-clockwise, but its area underflows
    with pytest.raises(ParameterError, match="polygon area is 0"):
        geo.make_domain("unit_square", side=1e-200)
    with pytest.raises(ParameterError, match="polygon area is 0"):
        geo.PolygonalDomain(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(ParameterError, match="must be counter-clockwise"):
        geo.PolygonalDomain(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))


def test_self_intersecting_rejected():
    bowtie = np.array([[0, 0], [1, 1], [1, 0], [0, 1]], dtype=float)
    with pytest.raises(ParameterError):
        geo.PolygonalDomain(bowtie)


def ring_edges(verts):
    v = np.asarray(verts, dtype=float)
    return np.stack([v, np.roll(v, -1, axis=0)], axis=1)


CONTACT_CASES = [
    ([[0, 0], [1, 1], [1, 0], [0, 1]], False),  # proper crossing
    ([[0, 0], [4, 0], [4, 4], [2, 0], [0, 4]], False),  # vertex on a non-adjacent edge
    ([[0, 0], [4, 0], [2, 0], [2, 2]], False),  # edges fold back
    ([[0, 0], [4, 0], [2, 0]], False),  # adjacent edges fold back, nothing else meets
    ([[0, 0], [4, 0], [4, 4], [2, 1], [0, 4]], True),
    ([[0, 0], [2, 0], [4, 0], [4, 4], [0, 4]], True),  # collinear neighbors
]


@pytest.mark.parametrize("verts,simple", CONTACT_CASES)
def test_is_simple_contacts(verts, simple):
    assert geo._is_simple(ring_edges(verts)) is simple


def crossed_koch(level, k):
    """Koch ``level``'s edges with vertex k moved across the polygon, so
    that its two edges cross others."""
    v = geo._koch_vertices(level, 1.0).copy()
    v[k] = geo.centroid(geo.PolygonalDomain(v)) * 2.0 - v[k]
    return ring_edges(v)


@pytest.mark.parametrize("block", [1, 3, 7, 50])
def test_is_simple_runs_keep_every_verdict(monkeypatch, block):
    cases = [(ring_edges(verts), simple) for verts, simple in CONTACT_CASES]
    cases += [(geo.make_domain(name, level=3).edges, True)
              for name in ("unit_square", "l_shape", "slit_square", "koch_prefractal")]
    cases += [(crossed_koch(3, k), False) for k in (0, 17, 95, 191)]
    monkeypatch.setattr(geo, "BLOCK", block)
    for edges, simple in cases:
        assert geo._is_simple(edges) is simple


def test_is_simple_lists_at_most_a_block_of_pairs(monkeypatch):
    """Every run lists at most BLOCK pairs unless one edge alone has more,
    the first run with a meeting pair decides, and Koch 7 builds in a few
    megabytes (88 MB when every pair was listed at once)."""
    runs = []
    pairs_meet = geo._pairs_meet

    def spy(edges, blo, bhi, u, v):
        runs.append((len(u), pairs_meet(edges, blo, bhi, u, v)))
        return runs[-1][1]

    monkeypatch.setattr(geo, "_pairs_meet", spy)
    monkeypatch.setattr(geo, "BLOCK", 40)
    assert geo._is_simple(geo.make_domain("koch_prefractal", level=3).edges)
    every = len(runs)
    assert every > 10 and max(n for n, _ in runs) <= 40
    for k in (0, 95):
        runs.clear()
        assert not geo._is_simple(crossed_koch(3, k))
        assert [meet for _, meet in runs] == [False] * (len(runs) - 1) + [True]
    assert len(runs) < every
    monkeypatch.undo()
    v = geo._koch_vertices(7, 1.0)
    tracemalloc.start()
    try:
        geo.PolygonalDomain(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6


def unscaled_centroid(dom):
    v = dom.vertices
    w = np.roll(v, -1, axis=0)
    cross = v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]
    area = cross.sum() / 2.0
    return np.array([((v[:, 0] + w[:, 0]) * cross).sum() / (6.0 * area),
                     ((v[:, 1] + w[:, 1]) * cross).sum() / (6.0 * area)])


@pytest.mark.parametrize("preset, kw", [("unit_square", {}), ("l_shape", {}),
                                        ("slit_square", {}), ("koch_prefractal", {"level": 2}),
                                        ("koch_prefractal", {"level": 4})])
def test_centroid_is_exact_up_to_the_coordinate_limit(preset, kw):
    """Scaling by powers of two is exact: the centroid keeps the unscaled
    formula's bits where that one is in range, and scales with the side up
    to COORD_LIMIT, where the unscaled sums of cubes overflow."""
    base = geo.centroid(geo.make_domain(preset, **kw))
    assert base.tobytes() == unscaled_centroid(geo.make_domain(preset, **kw)).tobytes()
    for k in (-300, -7, 3, 100, 497):
        dom = geo.make_domain(preset, side=2.0**k, **kw)
        if k <= 100:
            assert geo.centroid(dom).tobytes() == unscaled_centroid(dom).tobytes()
        assert geo.centroid(dom).tobytes() == (base * 2.0**k).tobytes()
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(unscaled_centroid(geo.make_domain(preset, side=2.0**400, **kw))
                               ).all()


def test_distance_square(unit_square):
    assert geo.boundary_distances(unit_square, [(0.5, 0.5)])[0] == pytest.approx(0.5)
    assert geo.boundary_distances(unit_square, [(0.25, 0.5)])[0] == pytest.approx(0.25)
    # defined outside as well
    assert geo.boundary_distances(unit_square, [(2.0, 0.5)])[0] == pytest.approx(1.0)


def test_distance_koch_centroid_oracle(koch2):
    c = geo.centroid(koch2)
    want = min(seg_dist(c, e[0], e[1]) for e in koch2.edges)
    assert geo.boundary_distances(koch2, [c])[0] == pytest.approx(want, abs=1e-12)


def test_distance_tiles_bound_their_working_set(slit_square):
    """A tile spans BLOCK // 8 pairs, so its ~7 temporaries hold about
    BLOCK floats: 2.1 MiB traced for 65,536 points of the slit square,
    output included, where tiles of BLOCK pairs took 6.0."""
    pts = np.random.default_rng(0).random((65_536, 2))
    tracemalloc.start()
    try:
        geo.boundary_distances(slit_square, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20


def test_contact_tiles_bound_their_working_set(koch3):
    """The contact test's tiles are pair tiles too: 0.5 MiB traced for 2,000
    random 0.02-wide boxes on Koch 3, where tiles of BLOCK pairs took 3.2."""
    lo, hi = koch3.bounding_box()
    los = np.random.default_rng(0).uniform(lo, hi, size=(2000, 2))
    inside = dense_parity(koch3, los + 0.01)
    tracemalloc.start()
    try:
        geo.boxes_inside_domain(koch3, los, los + 0.02, inside)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20


def test_contains(unit_square):
    assert local_inside(unit_square, [(0.5, 0.5)])[0]
    assert not local_inside(unit_square, [(1.5, 0.5)])[0]
    assert not local_inside(unit_square, [(1.0, 0.5)])[0]  # boundary excluded
    assert not local_inside(unit_square, [(1.0 - 1e-13, 0.5)])[0]


def test_contains_implies_positive_distance(koch2):
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.2, 1.2, size=(500, 2))
    inside = local_inside(koch2, pts)
    d = geo.boundary_distances(koch2, pts)
    assert np.all(d[inside] > 0)


def test_distance_lipschitz(koch2):
    rng = np.random.default_rng(1)
    xs = rng.uniform(-0.3, 1.3, size=(300, 2))
    ys = xs + rng.normal(scale=0.05, size=xs.shape)
    dx = geo.boundary_distances(koch2, xs)
    dy = geo.boundary_distances(koch2, ys)
    gap = np.linalg.norm(xs - ys, axis=1)
    assert np.all(np.abs(dx - dy) <= gap + 1e-9)


def test_sample_boundary_square(unit_square):
    four = geo.sample_boundary(unit_square, 4)
    assert np.allclose(four, [[0, 0], [1, 0], [1, 1], [0, 1]])
    eight = geo.sample_boundary(unit_square, 8)
    assert np.allclose(
        eight,
        [[0, 0], [0.5, 0], [1, 0], [1, 0.5], [1, 1], [0.5, 1], [0, 1], [0, 0.5]],
    )


def test_sample_boundary_koch_arclength_oracle():
    dom = geo.make_domain("koch_prefractal", level=1)
    pts = geo.sample_boundary(dom, 12)
    # oracle: cumulative arc-length table; spacing equals one edge length,
    # so each sample sits at an edge start
    seg = dom.edges[:, 1] - dom.edges[:, 0]
    lens = np.hypot(seg[:, 0], seg[:, 1])
    cum = np.concatenate([[0.0], np.cumsum(lens)])
    targets = np.arange(12) * (cum[-1] / 12)
    for k, s in enumerate(targets):
        i = min(np.searchsorted(cum, s, side="right") - 1, 11)
        t = (s - cum[i]) / lens[i]
        want = dom.edges[i, 0] + t * seg[i]
        assert np.allclose(pts[k], want, atol=1e-12)


def test_sample_boundary_errors(unit_square):
    with pytest.raises(ParameterError):
        geo.sample_boundary(unit_square, 0)


def test_json_roundtrip(koch2):
    text = geo.domain_to_json(koch2)
    back = geo.domain_from_json(text)
    assert back.name == koch2.name
    assert np.array_equal(back.vertices, koch2.vertices)


def test_box_inside_domain(unit_square, slit_square):
    def inside(dom, lo, hi):
        lo, hi = np.array([lo], dtype=float), np.array([hi], dtype=float)
        return geo.boxes_inside_domain(dom, lo, hi, dense_parity(dom, (lo + hi) / 2))[0]

    assert inside(unit_square, (0.2, 0.2), (0.8, 0.8))
    assert not inside(unit_square, (-0.1, 0.2), (0.5, 0.5))
    # touching the boundary does not count (open domain)
    assert not inside(unit_square, (0.0, 0.2), (0.5, 0.5))
    assert not inside(unit_square, (0.2, 0.2), (1.0 - 1e-13, 0.8))
    # the slit notch pierces boxes spanning the vertical midline near the top
    assert not inside(slit_square, (0.4, 0.8), (0.6, 0.95))
    assert inside(slit_square, (0.1, 0.1), (0.45, 0.45))
    # a closed box whose top side passes through the slit tip (0.5, 0.5)
    assert not inside(slit_square, (0.4, 0.3), (0.6, 0.5))
    assert inside(slit_square, (0.4, 0.3), (0.6, 0.5 - 1e-9))
    # an outside point's side excludes the box without a contact test
    assert not geo.boxes_inside_domain(unit_square, [(0.2, 0.2)], [(0.8, 0.8)], [False])[0]


# ---------------------------------------------------------------------------
# dense oracles: every point against every edge


def dense_boundary_distances(dom, points):
    return np.sqrt(dense_point_edge_dist_sq(points, dom.edges).min(axis=1))


def dense_contains(dom, points):
    return dense_parity(dom, points) & (dense_boundary_distances(dom, points) > geo.BOUNDARY_EPS)


def probe_points(dom, seed):
    """Points where containment is delicate, plus a uniform spread."""
    rng = np.random.default_rng(seed)
    v, e = dom.vertices, dom.edges
    lo, hi = dom.bounding_box()
    pad = 0.1 * (hi - lo)
    dirs = np.array([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1], [1, -1], [-1, 1]])
    pts = [v, (e[:, 0] + e[:, 1]) / 2.0, rng.uniform(lo - pad, hi + pad, size=(2000, 2))]
    pts += [v + off * dirs[k] for off in (1e-13, 1.5e-12) for k in range(len(dirs))]
    # rays through vertices: points at every vertex y, left of, at and right of it
    for dx in (-0.5, -1e-13, 0.0, 1e-13, 0.3):
        pts.append(np.stack([v[:, 0] + dx * (hi[0] - lo[0]), v[:, 1]], axis=1))
    pts.append(np.stack([rng.uniform(lo[0] - pad[0], hi[0] + pad[0], len(v)), v[:, 1]], axis=1))
    flat = e[e[:, 0, 1] == e[:, 1, 1]]  # horizontal edges
    for t in (0.25, 0.5):
        on = flat[:, 0] + t * (flat[:, 1] - flat[:, 0])
        pts += [on + off * np.array([0.0, 1.0]) for off in (0.0, 1e-13, -1e-13, 1.5e-12)]
    return np.concatenate(pts)


def assert_predicates_match_dense(dom, seed=0):
    """Distances bit for bit, the first nearest edge, and the local inside
    rule against ray parity."""
    pts = probe_points(dom, seed)
    dist = geo.boundary_distances(dom, pts)
    want = dense_boundary_distances(dom, pts)
    assert dist.tobytes() == want.tobytes()
    near, edge = geo.nearest_edges(dom, pts)
    assert near.tobytes() == want.tobytes()
    assert np.array_equal(edge, dense_point_edge_dist_sq(pts, dom.edges).argmin(axis=1))
    assert np.array_equal(local_inside(dom, pts), dense_contains(dom, pts))


@pytest.mark.parametrize("preset,kw", [
    ("unit_square", {}),
    ("l_shape", {}),
    ("slit_square", {}),
    ("slit_square", {"aperture": 1e-12}),
    ("koch_prefractal", {"level": 0}),
    ("koch_prefractal", {"level": 2}),
    ("koch_prefractal", {"level": 3}),
])
def test_predicates_match_dense_oracle_on_presets(preset, kw):
    assert_predicates_match_dense(geo.make_domain(preset, **kw))


@settings(max_examples=60)
@given(st.booleans().flatmap(lambda snap: star_polygons(snap=snap)), st.integers(0, 2**16))
def test_predicates_match_dense_oracle_on_star_polygons(dom, seed):
    assert_predicates_match_dense(dom, seed)


def around(points, radii, n_dirs=16):
    """Points on circles of each radius about each point."""
    ang = np.arange(n_dirs) * (2 * np.pi / n_dirs)
    ring = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return (np.asarray(points, dtype=float)[:, None, None]
            + np.asarray(radii)[None, :, None, None] * ring[None, None]).reshape(-1, 2)


def test_side_rule_beyond_convex_and_reflex_vertices(unit_square, l_shape):
    """On the extension of an edge beyond its end vertex the foot clamps to
    the vertex: outside beyond the square's convex corner, inside beyond
    the L's reflex one. Points equidistant from the two edges at a vertex
    have both feet at it, or inside both edges."""
    square = {(1.1, 0.0): False, (1.0, -0.1): False, (1.1, -0.1): False, (0.9, 0.1): True}
    ell = {(0.4, 0.5): True, (0.5, 0.4): True, (0.4, 0.4): True, (0.6, 0.6): False,
           (0.5 - 1e-9, 0.5 - 1e-9): True, (0.5 + 1e-9, 0.5 + 1e-9): False}
    for dom, cases in ((unit_square, square), (l_shape, ell)):
        pts = np.array(list(cases))
        assert local_inside(dom, pts).tolist() == list(cases.values())
        assert np.array_equal(local_inside(dom, pts), dense_contains(dom, pts))


@pytest.mark.parametrize("preset,kw", [
    ("koch_prefractal", {"level": 1}),
    ("koch_prefractal", {"level": 2}),
    ("slit_square", {}),
    ("slit_square", {"aperture": 1e-12}),
])
def test_side_rule_at_sharp_tips(preset, kw):
    """Around every vertex, the Koch 60-degree tips and the slit's notch tip
    among them, at radii from just above BOUNDARY_EPS to a hundredth, and
    along each vertex's bisector on both sides."""
    dom = geo.make_domain(preset, **kw)
    v = dom.vertices
    bisector = (np.roll(v, 1, axis=0) + np.roll(v, -1, axis=0)) / 2 - v
    pts = np.concatenate([around(v, [2e-12, 1e-9, 1e-6, 1e-3, 0.01], 64),
                          *(v + t * bisector for t in (-0.5, -1e-6, 1e-9, 1e-6, 0.5))])
    assert np.array_equal(local_inside(dom, pts), dense_contains(dom, pts))


def test_side_rule_at_the_slit_tip(slit_square):
    """Below the tip inside, in the notch above it outside, beside the notch
    inside."""
    pts = [(0.5, 0.4), (0.5, 0.5 + 1e-6), (0.5, 0.9), (0.49, 0.55), (0.5 - 1e-9, 0.5)]
    assert local_inside(slit_square, pts).tolist() == [True, False, False, True, True]


@pytest.mark.parametrize("verts,inner,outer", [
    ([(0, 0), (0.5, 0), (1, 0), (1, 1), (0, 1)], (0.5, 0.1), (0.5, -0.1)),
    ([(0, 0), (1, 0), (1, 1), (0.5, 0.75), (0, 0.5)], (0.5, 0.65), (0.5, 0.85)),
], ids=["axis", "slanted"])
def test_side_rule_at_a_collinear_vertex(verts, inner, outer):
    """A vertex between two edges on one line: the feet of points around it
    clamp to it from both edges."""
    dom = geo.PolygonalDomain(verts)
    mid = next(p for k, p in enumerate(dom.vertices)
               if geo._orient(dom.vertices[k - 1], p, dom.vertices[(k + 1) % len(verts)]) == 0)
    pts = np.concatenate([around([mid], [2e-12, 1e-9, 1e-3, 0.1], 32), dom.vertices])
    assert np.array_equal(local_inside(dom, pts), dense_contains(dom, pts))
    assert local_inside(dom, [inner, outer]).tolist() == [True, False]


def assert_distances_match_dense(dom, pts):
    got = geo.boundary_distances(dom, pts)
    assert got.tobytes() == dense_boundary_distances(dom, pts).tobytes()


@pytest.mark.parametrize("block", [None, 56, 7])
def test_nearest_edge_is_the_first_on_ties(monkeypatch, unit_square, block):
    """Points equidistant from two or four edges of the square take the
    first, within one edge group (default BLOCK) and across groups of one
    edge (BLOCK = 56 and 7)."""
    if block is not None:
        monkeypatch.setattr(geo, "BLOCK", block)
    pts = [(0.5, 0.5), (0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75), (1.5, 1.5)]
    dist, edge = geo.nearest_edges(unit_square, pts)
    assert edge.tolist() == [0, 0, 0, 1, 2, 1]
    assert dist.tobytes() == geo.boundary_distances(unit_square, pts).tobytes()


def test_tiled_distances_at_tile_edges(unit_square):
    """One point against 12,288 edges (one tile), and point counts just past
    a power of two (65,537 is one past a whole tile of points)."""
    koch6 = geo.make_domain("koch_prefractal", level=6)
    assert_distances_match_dense(koch6, koch6.edges[100, :1] + np.array([[1e-3, -2e-3]]))
    rng = np.random.default_rng(5)
    for m in (4097, 65537):
        assert_distances_match_dense(unit_square, rng.uniform(-0.2, 1.2, size=(m, 2)))


@pytest.mark.parametrize("m", [1, 2, 3, 50])
def test_tiled_distances_with_uneven_groups(koch3, monkeypatch, m):
    """Tiles of 7 pairs (BLOCK = 56): one point takes the 192 edges in 27
    groups of 7 and one of 3; 50 points go 7 at a time, the last alone. At
    BLOCK = 7 a tile is one pair."""
    pts = np.random.default_rng(m).uniform(-0.1, 1.1, size=(m, 2))
    for block in (56, 7):
        monkeypatch.setattr(geo, "BLOCK", block)
        assert_distances_match_dense(koch3, pts)


# ---------------------------------------------------------------------------
# box admissibility against a dense separating-axis oracle


def dense_boxes_inside(dom, los, his):
    """Odd ray parity of the centre, and no edge meeting the box widened by
    BOUNDARY_EPS: a closed segment and a closed box are disjoint iff their
    projections on the x axis, the y axis or the segment's normal are."""
    centre = (los + his) / 2.0
    half = (his - los) / 2.0 + geo.BOUNDARY_EPS
    a, b = dom.edges[:, 0], dom.edges[:, 1]
    normal = np.stack([a[:, 1] - b[:, 1], b[:, 0] - a[:, 0]], axis=1)
    meet = np.zeros(len(los), dtype=bool)
    for k in range(0, len(los), 256):
        c, r = centre[k:k + 256, None, :], half[k:k + 256, None, :]
        apart = ((np.minimum(a, b) > c + r) | (np.maximum(a, b) < c - r)).any(axis=2)
        apart |= np.abs(((a - c) * normal).sum(axis=2)) > (r * np.abs(normal)).sum(axis=2)
        meet[k:k + 256] = ~apart.all(axis=1)
    return dense_parity(dom, centre) & ~meet


def sharp_maximal_boxes(dom, h, sigma):
    """The (los, his, inside) of every box family ``sharp_maximal`` tests."""
    seen, real = [], geo.boxes_inside_domain

    def record(d, los, his, inside):
        seen.append((los, his, inside))
        return real(d, los, his, inside)

    with mock.patch.object(iq.geometry, "boxes_inside_domain", record):
        iq.sharp_maximal(fields.make_grid(dom, h), sigma)
    return seen


@pytest.mark.parametrize("sigma", [1.0, 3.0])
def test_sharp_maximal_boxes_touching_an_edge_are_not_admitted(unit_square, sigma):
    """On the unit square at h = 1/16 the sigma-scaled boxes are grid-aligned,
    so those reaching x or y = 0 or 1 touch an edge exactly: their first
    cell's mask says inside, and the contact test rejects them."""
    touching = 0
    for los, his, inside in sharp_maximal_boxes(unit_square, 1 / 16, sigma):
        got = geo.boxes_inside_domain(unit_square, los, his, inside)
        within = ((los > 0) & (his < 1)).all(axis=1)
        assert np.array_equal(got, within)
        touching += (inside & ~within & ((los >= 0) & (his <= 1)).all(axis=1)).sum()
    assert touching > 0


def probe_boxes(dom, seed):
    """Boxes with a corner near a vertex, at an edge midpoint or at random,
    one box per quadrant. The vertex offsets sit on either side of
    BOUNDARY_EPS; they are not small-integer ratios of it, so no widened box
    touches a lattice-slope edge exactly, where rounding alone would decide."""
    rng = np.random.default_rng(seed)
    v, e = dom.vertices, dom.edges
    lo, hi = dom.bounding_box()
    dirs = np.array([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1], [1, -1], [-1, 1]])
    pts = [v, (e[:, 0] + e[:, 1]) / 2.0, rng.uniform(lo, hi, size=(500, 2))]
    pts += [v + off * dirs[k] for off in (3.7e-13, 1.61e-12) for k in range(len(dirs))]
    pts = np.concatenate(pts)
    side = 0.05 * np.ptp(v, axis=0).max()
    quadrant = np.array([[0, 0], [-1, 0], [0, -1], [-1, -1]])
    los = (pts[:, None, :] + side * quadrant).reshape(-1, 2)
    return los, los + side


def assert_boxes_match_dense(dom, h, seed=0):
    """Each sharp maximal family with the grid mask's sides, and the probe
    boxes with the local rule's side of their centres."""
    families = [boxes for sigma in (1.0, 2.0, 4.0) for boxes in sharp_maximal_boxes(dom, h, sigma)]
    los, his = probe_boxes(dom, seed)
    for los, his, inside in [*families, (los, his, local_inside(dom, (los + his) / 2.0))]:
        got = geo.boxes_inside_domain(dom, los, his, inside)
        assert np.array_equal(got, dense_boxes_inside(dom, los, his))


@pytest.mark.parametrize("preset,kw", [
    ("slit_square", {}),
    ("slit_square", {"aperture": 1e-12}),
    ("l_shape", {}),
    ("koch_prefractal", {"level": 2}),
    ("koch_prefractal", {"level": 3}),
    ("unit_square", {}),
])
def test_boxes_inside_domain_matches_dense_oracle_on_presets(preset, kw):
    assert_boxes_match_dense(geo.make_domain(preset, **kw), 1 / 64)


@pytest.mark.parametrize("preset,kw", [
    ("slit_square", {"aperture": 1e-12}),
    ("koch_prefractal", {"level": 3}),
])
def test_boxes_inside_domain_in_tiles_of_7_pairs(monkeypatch, preset, kw):
    """Tiles of 7 (edge, box) pairs (BLOCK = 56). One, two or three boxes
    take the edges in groups of 7, 3 or 2 (the slit square's 7 edges as 3 +
    3 + 1, Koch 3's 192 as 27 x 7 + 3); about 100 boxes go 7 at a time
    against one edge. At BLOCK = 7 a tile is one pair."""
    dom = geo.make_domain(preset, **kw)
    los, his = probe_boxes(dom, 0)
    want = dense_boxes_inside(dom, los, his)
    odd = np.flatnonzero(dense_parity(dom, (los + his) / 2.0))
    inside, cut = odd[want[odd]], odd[~want[odd]]
    picks = [inside[:1], np.r_[inside[:1], cut[:1]], np.r_[cut[:1], inside[:2]],
             odd[:: len(odd) // 100]]
    for block in (56, 7):
        monkeypatch.setattr(geo, "BLOCK", block)
        for sel in picks:
            got = geo.boxes_inside_domain(dom, los[sel], his[sel], np.ones(len(sel), dtype=bool))
            assert np.array_equal(got, want[sel])


def test_contact_kernel_matches_clipping_by_side():
    """Random segments and boxes, with axis-parallel and zero-length
    segments, zero-width and inverted boxes and 1/8-lattice ties, flat and
    in the callers' (G, 1, 2) x (W, 2) broadcast."""
    rng = np.random.default_rng(13)
    n = 200_000
    p, q = rng.uniform(-1, 1, (n, 2)), rng.uniform(-1, 1, (n, 2))
    lo = rng.uniform(-1, 1, (n, 2))
    hi = lo + rng.uniform(-0.3, 1, (n, 2))  # inverted where the width is negative
    k = rng.integers(0, 6, n)
    q[k == 0, 0] = p[k == 0, 0]  # vertical
    q[k == 1, 1] = p[k == 1, 1]  # horizontal
    q[k == 2] = p[k == 2]  # a point
    hi[k == 3] = lo[k == 3]  # a point box
    snap = rng.random(n) < 0.5
    for a in (p, q, lo, hi):
        a[snap] = np.round(a[snap] * 8) / 8
    got = geo.segments_meet_boxes(p, q, lo, hi)
    assert np.array_equal(got, clip_by_side(p, q, lo, hi))
    assert 0.05 < got.mean() < 0.95
    a, b = p[:60, None], q[:60, None]
    assert np.array_equal(geo.segments_meet_boxes(a, b, lo[:500], hi[:500]),
                          clip_by_side(a, b, lo[:500], hi[:500]))


def test_no_module_binds_the_block_budget_by_value():
    """Every blocked pass reads ``geometry.BLOCK`` at call time, so one
    monkeypatch reaches them all; ``from .geometry import BLOCK`` would
    freeze a copy."""
    src = Path(geo.__file__).parent
    bound = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and (node.module or "").endswith("geometry")
                    and any(a.name in ("BLOCK", "*") for a in node.names)):
                bound.append(f"{path.name}:{node.lineno}")
    assert not bound


@settings(max_examples=30)
@given(st.booleans().flatmap(lambda snap: star_polygons(snap=snap)), st.integers(0, 2**16))
def test_boxes_inside_domain_matches_dense_oracle_on_star_polygons(dom, seed):
    assert_boxes_match_dense(dom, 1 / 16, seed)
