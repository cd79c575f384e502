import numpy as np
import pytest

from whardy import geometry as geo
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
    # the slit notch pierces boxes spanning the vertical midline near the top
    assert not geo.box_inside_domain(slit_square, (0.4, 0.8), (0.6, 0.95))
    assert geo.box_inside_domain(slit_square, (0.1, 0.1), (0.45, 0.45))
