from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import star_polygons
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


def test_self_intersecting_rejected():
    bowtie = np.array([[0, 0], [1, 1], [1, 0], [0, 1]], dtype=float)
    with pytest.raises(ParameterError):
        geo.PolygonalDomain(bowtie)


def ring_edges(verts):
    v = np.asarray(verts, dtype=float)
    return np.stack([v, np.roll(v, -1, axis=0)], axis=1)


@pytest.mark.parametrize("verts,simple", [
    ([[0, 0], [1, 1], [1, 0], [0, 1]], False),  # proper crossing
    ([[0, 0], [4, 0], [4, 4], [2, 0], [0, 4]], False),  # vertex on a non-adjacent edge
    ([[0, 0], [4, 0], [2, 0], [2, 2]], False),  # edges fold back
    ([[0, 0], [4, 0], [2, 0]], False),  # adjacent edges fold back, nothing else meets
    ([[0, 0], [4, 0], [4, 4], [2, 1], [0, 4]], True),
    ([[0, 0], [2, 0], [4, 0], [4, 4], [0, 4]], True),  # collinear neighbors
])
def test_is_simple_contacts(verts, simple):
    assert geo._is_simple(ring_edges(verts)) is simple


def test_distance_square(unit_square):
    assert geo.distance_to_boundary(unit_square, (0.5, 0.5)) == pytest.approx(0.5)
    assert geo.distance_to_boundary(unit_square, (0.25, 0.5)) == pytest.approx(0.25)
    # defined outside as well
    assert geo.distance_to_boundary(unit_square, (2.0, 0.5)) == pytest.approx(1.0)


def test_distance_koch_centroid_oracle(koch2):
    c = geo.centroid(koch2)
    want = min(seg_dist(c, e[0], e[1]) for e in koch2.edges)
    assert geo.distance_to_boundary(koch2, c) == pytest.approx(want, abs=1e-12)


def test_contains(unit_square):
    assert geo.contains(unit_square, (0.5, 0.5))
    assert not geo.contains(unit_square, (1.5, 0.5))
    assert not geo.contains(unit_square, (1.0, 0.5))  # boundary excluded
    assert not geo.contains(unit_square, (1.0 - 1e-13, 0.5))


def test_contains_implies_positive_distance(koch2):
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.2, 1.2, size=(500, 2))
    inside = geo.contains_many(koch2, pts)
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
    assert geo.box_inside_domain(unit_square, (0.2, 0.2), (0.8, 0.8))
    assert not geo.box_inside_domain(unit_square, (-0.1, 0.2), (0.5, 0.5))
    # touching the boundary does not count (open domain)
    assert not geo.box_inside_domain(unit_square, (0.0, 0.2), (0.5, 0.5))
    assert not geo.box_inside_domain(unit_square, (0.2, 0.2), (1.0 - 1e-13, 0.8))
    # the slit notch pierces boxes spanning the vertical midline near the top
    assert not geo.box_inside_domain(slit_square, (0.4, 0.8), (0.6, 0.95))
    assert geo.box_inside_domain(slit_square, (0.1, 0.1), (0.45, 0.45))
    # a closed box whose top side passes through the slit tip (0.5, 0.5)
    assert not geo.box_inside_domain(slit_square, (0.4, 0.3), (0.6, 0.5))
    assert geo.box_inside_domain(slit_square, (0.4, 0.3), (0.6, 0.5 - 1e-9))


# ---------------------------------------------------------------------------
# dense oracles: every point against every edge


def dense_point_edge_dist_sq(points, edges):
    a = edges[:, 0]
    ab = edges[:, 1] - edges[:, 0]
    ap = points[:, None, :] - a[None, :, :]
    denom = (ab * ab).sum(axis=1)
    denom = np.where(denom == 0, 1.0, denom)
    t = np.clip((ap * ab[None, :, :]).sum(axis=2) / denom, 0.0, 1.0)
    diff = ap - t[:, :, None] * ab[None, :, :]
    return (diff * diff).sum(axis=2)


def dense_boundary_distances(dom, points):
    return np.sqrt(dense_point_edge_dist_sq(points, dom.edges).min(axis=1))


def dense_parity(dom, points):
    v = dom.vertices
    w = np.roll(v, -1, axis=0)
    px, py = points[:, 0:1], points[:, 1:2]
    cond = (v[:, 1] > py) != (w[:, 1] > py)
    with np.errstate(divide="ignore", invalid="ignore"):
        xin = (w[:, 0] - v[:, 0]) * (py - v[:, 1]) / (w[:, 1] - v[:, 1]) + v[:, 0]
    return (cond & (px < xin)).sum(axis=1) % 2 == 1


def dense_contains_many(dom, points, dist=None):
    d = dense_boundary_distances(dom, points) if dist is None else dist
    return dense_parity(dom, points) & (d > geo.BOUNDARY_EPS)


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
    pts = probe_points(dom, seed)
    dist = geo.boundary_distances(dom, pts)
    assert dist.tobytes() == dense_boundary_distances(dom, pts).tobytes()
    want = dense_contains_many(dom, pts)
    assert np.array_equal(geo.contains_many(dom, pts), want)
    assert np.array_equal(geo.contains_many(dom, pts, dist=dist), want)


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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.booleans().flatmap(lambda snap: star_polygons(snap=snap)), st.integers(0, 2**16))
def test_predicates_match_dense_oracle_on_star_polygons(dom, seed):
    assert_predicates_match_dense(dom, seed)


def test_slab_lists_are_the_parity_condition(koch2):
    """A slab lists exactly the edges with ylo <= y < yhi, in edge order."""
    ys = np.concatenate([koch2.vertices[:, 1], np.linspace(-0.1, 1.0, 101)])
    ylo, yhi = koch2.edges[:, :, 1].min(axis=1), koch2.edges[:, :, 1].max(axis=1)
    index = koch2._parity_slabs
    slab = np.searchsorted(index.breaks, ys, side="right")
    for y, k in zip(ys, slab):
        listed = index.edges[index.ptr[k]:index.ptr[k + 1]]
        assert listed.tolist() == np.flatnonzero((ylo <= y) & (y < yhi)).tolist()


def test_slab_chunks_cover_every_pair(koch3, monkeypatch):
    monkeypatch.setattr(geo, "PAIR_CHUNK", 50)
    ys = np.random.default_rng(2).uniform(-0.1, 1.0, 300)
    index = koch3._parity_slabs
    counts = np.diff(index.ptr)[np.searchsorted(index.breaks, ys, side="right")]
    stops, total = [0], 0
    for start, stop, owner, e in index.chunks(ys):
        assert start == stops[-1] and len(owner) == len(e) == counts[start:stop].sum()
        assert len(e) <= 50 or stop == start + 1
        stops.append(stop)
        total += len(e)
    assert stops[-1] == len(ys) and total == counts.sum()


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
    """The (los, his) of every box family ``sharp_maximal`` tests."""
    seen, real = [], geo.boxes_inside_domain

    def record(d, los, his):
        seen.append((los, his))
        return real(d, los, his)

    with mock.patch.object(iq.geometry, "boxes_inside_domain", record):
        iq.sharp_maximal(fields.make_grid(dom, h), sigma)
    return seen


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
    families = [boxes for sigma in (1.0, 2.0, 4.0) for boxes in sharp_maximal_boxes(dom, h, sigma)]
    for los, his in [*families, probe_boxes(dom, seed)]:
        got = geo.boxes_inside_domain(dom, los, his)
        assert np.array_equal(got, dense_boxes_inside(dom, los, his))


@pytest.mark.parametrize("preset,kw", [
    ("slit_square", {}),
    ("slit_square", {"aperture": 1e-12}),
    ("l_shape", {}),
    ("koch_prefractal", {"level": 2}),
    ("koch_prefractal", {"level": 3}),
])
def test_boxes_inside_domain_matches_dense_oracle_on_presets(preset, kw):
    assert_boxes_match_dense(geo.make_domain(preset, **kw), 1 / 64)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.booleans().flatmap(lambda snap: star_polygons(snap=snap)), st.integers(0, 2**16))
def test_boxes_inside_domain_matches_dense_oracle_on_star_polygons(dom, seed):
    assert_boxes_match_dense(dom, 1 / 16, seed)
