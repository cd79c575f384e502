import math

import numpy as np
import pytest

from whardy import geometry as geo
from whardy import whitney as wt
from whardy.errors import EmptyDecompositionError, ParameterError


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

    def acceptable(level, ix, iy):
        side = frame.cube_side(level)
        lo = origin + np.array([ix, iy]) * side
        hi = lo + side
        center = lo + side / 2.0
        d2 = wt.boxes_boundary_dist_sq(unit_square, lo[None, :], hi[None, :])[0]
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
    seen = set()
    for t in range(len(dec)):
        for s in dec.neighbors[t]:
            assert t in dec.neighbors[s]  # symmetry
            seen.add(round(float(sides[s] / sides[t]), 12))
        assert set(dec.face_neighbors[t]) <= set(dec.neighbors[t])
    assert seen <= {0.25, 0.5, 1.0, 2.0, 4.0}


def test_face_vs_corner_contact(square_dec6):
    dec = square_dec6
    L = int(dec.levels.max())
    lo, hi = dec.spans(L)
    corner_pairs = 0
    for t in range(len(dec)):
        for s in dec.neighbors[t]:
            overlap_deg = sum(
                int(max(lo[t][a], lo[s][a]) == min(hi[t][a], hi[s][a]))
                for a in range(2)
            )
            if s in dec.face_neighbors[t]:
                assert overlap_deg == 1  # shares a 1-dimensional face
            else:
                assert overlap_deg == 2  # corner contact only
                corner_pairs += 1
    assert corner_pairs > 0


def test_expanded_cube_geometry(square_dec6):
    c = square_dec6.cube(0)
    box = wt.expanded_cube(c)
    assert box.hi[0] - box.lo[0] == pytest.approx(17.0 / 16.0 * c.side)
    assert box.center == pytest.approx(c.center)
    near_one = wt.expanded_cube(c, factor=1.0 + 1e-9)
    assert np.allclose(near_one.lo, c.lo, atol=1e-8)
    with pytest.raises(ParameterError):
        wt.expanded_cube(c, factor=1.3)


def test_expanded_overlap_iff_neighbors(unit_square):
    dec = wt.whitney_decompose(unit_square, 5)
    boxes = [wt.expanded_cube(dec.cube(t)) for t in range(len(dec))]
    for t in range(len(dec)):
        for s in range(t + 1, len(dec)):
            bt, bs = boxes[t], boxes[s]
            overlap = (
                bt.lo[0] < bs.hi[0]
                and bs.lo[0] < bt.hi[0]
                and bt.lo[1] < bs.hi[1]
                and bs.lo[1] < bt.hi[1]
            )
            assert overlap == (s in dec.neighbors[t])


def test_overlap_bound(square_dec6):
    dec = square_dec6
    xs = np.linspace(0.01, 0.99, 40)
    pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    counts = np.zeros(len(pts), dtype=int)
    for t in range(len(dec)):
        b = wt.expanded_cube(dec.cube(t))
        sel = (
            (pts[:, 0] >= b.lo[0])
            & (pts[:, 0] <= b.hi[0])
            & (pts[:, 1] >= b.lo[1])
            & (pts[:, 1] <= b.hi[1])
        )
        counts[sel] += 1
    assert counts.max() <= 12**2


def test_determinism(unit_square):
    a = wt.whitney_decompose(unit_square, 5)
    b = wt.whitney_decompose(unit_square, 5)
    assert np.array_equal(a.levels, b.levels)
    assert np.array_equal(a.indices, b.indices)
    assert a.neighbors == b.neighbors


def test_covering_away_from_collar(square_dec6, unit_square):
    dec = square_dec6
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 1, size=(400, 2))
    d = geo.boundary_distances(unit_square, pts)
    far = pts[d >= dec.collar_width]
    assert len(far) > 0
    for p in far:
        assert dec.locate(p) is not None


def test_empty_decomposition_error():
    sliver = geo.PolygonalDomain(
        np.array([[0, 0], [1.0, 0], [1.0, 0.001], [0, 0.001]]), name="sliver"
    )
    with pytest.raises(EmptyDecompositionError):
        wt.whitney_decompose(sliver, 4)


def test_max_level_precondition(unit_square):
    with pytest.raises(ParameterError):
        wt.whitney_decompose(unit_square, 1)


def test_json_roundtrip(square_dec6, unit_square):
    text = wt.decomposition_to_json(square_dec6)
    back = wt.decomposition_from_json(text, unit_square)
    assert np.array_equal(back.levels, square_dec6.levels)
    assert np.array_equal(back.indices, square_dec6.indices)
    assert back.neighbors == square_dec6.neighbors
    assert back.face_neighbors == square_dec6.face_neighbors
