import math

import numpy as np
import pytest

from whardy import dimension as dim
from whardy import geometry as geo
from whardy.errors import ParameterError


def interval_cover_oracle(points, r):
    """Exact minimal number of radius-r balls covering a 1-D point set."""
    xs = np.sort(np.unique(points))
    count = 0
    i = 0
    while i < len(xs):
        end = xs[i] + 2 * r
        count += 1
        while i < len(xs) and xs[i] <= end:
            i += 1
    return count


@pytest.fixture(scope="module")
def eset():
    return dim.inverse_reciprocal_set(10_000)


@pytest.fixture(scope="module")
def square_target(unit_square):
    return dim.boundary_target(unit_square, 2e-3)


@pytest.fixture(scope="module")
def koch4_target():
    dom = geo.make_domain("koch_prefractal", level=4)
    return dim.boundary_target(dom, 3.0**-4)


def test_segment_cover():
    seg = dim.point_set_target(np.linspace(0, 1, 2001), "segment")
    cover, packing = dim.covering_number(seg, 0.1)
    exact = interval_cover_oracle(np.linspace(0, 1, 2001), 0.1)
    assert exact == 5
    assert 5 <= cover <= 6
    assert packing <= exact <= cover


def test_single_point():
    one = dim.point_set_target(np.array([0.7]), "pt")
    assert dim.covering_number(one, 0.3) == (1, 1)


def test_covering_region_oracle():
    E = dim.inverse_reciprocal_set(1000)
    cover, packing = dim.covering_number(E, 1e-3, region=((0.0, 0.0), 0.1))
    pts = E.points[np.linalg.norm(E.points, axis=1) <= 0.1][:, 0]
    exact = interval_cover_oracle(pts, 1e-3)
    assert packing <= exact <= cover
    assert cover <= exact + max(2, int(0.3 * exact))


def test_covering_empty_region(square_target):
    assert dim.covering_number(square_target, 0.01, region=((9.0, 9.0), 0.1)) == (0, 0)


def test_covering_errors(square_target):
    with pytest.raises(ParameterError):
        dim.covering_number(square_target, 0.0)
    with pytest.raises(ParameterError):
        dim.covering_number(square_target, 0.2, region=((0, 0), 0.1))


def test_box_dimension_square(square_target):
    est = dim.box_dimension(square_target, 4e-3, 6.4e-2, 6)
    assert est.value == pytest.approx(1.0, abs=0.05)
    assert est.r_squared > 0.99


def test_box_dimension_reciprocals(eset):
    est = dim.box_dimension(eset, 1e-5, 1e-2, 8)
    assert est.value == pytest.approx(0.5, abs=0.07)


def test_box_dimension_koch(koch4_target):
    est = dim.box_dimension(koch4_target, 3.0**-4, 3.0**-1, 7)
    assert est.value == pytest.approx(math.log(4) / math.log(3), abs=0.05)


def test_box_dimension_errors(square_target):
    with pytest.raises(ParameterError):
        dim.box_dimension(square_target, 0.1, 0.01, 6)
    with pytest.raises(ParameterError):
        dim.box_dimension(square_target, 0.01, 0.1, 3)


def test_assouad_square(square_target):
    est = dim.assouad_dimension(
        square_target, [1 / 16, 1 / 32, 1 / 64, 1 / 128], [0.6, 0.3], centers=12
    )
    assert est.value == pytest.approx(1.0, abs=0.1)


def test_assouad_reciprocals(eset):
    est = dim.assouad_dimension(
        eset, [1 / 16, 1 / 32, 1 / 64, 1 / 128],
        np.geomspace(1e-3, 3e-2, 8), centers=12,
    )
    # strictly above the box dimension 0.5 of the same set
    assert est.value == pytest.approx(1.0, abs=0.1)
    assert est.value > 0.8


def test_assouad_koch(koch4_target):
    est = dim.assouad_dimension(koch4_target, [1 / 3, 1 / 9, 1 / 27], [0.45, 0.3],
                                centers=16)
    assert est.value == pytest.approx(1.26, abs=0.08)
    assert "prefractal" in est.note


def test_assouad_errors(square_target):
    with pytest.raises(ParameterError):
        dim.assouad_dimension(square_target, [0.5], [0.3], centers=4)
    with pytest.raises(ParameterError):
        dim.assouad_dimension(square_target, [2.0, 0.5], [0.3], centers=4)
    with pytest.raises(ParameterError):
        dim.assouad_dimension(square_target, [1 / 4, 1 / 8], [0.3], centers=0)


def test_monotonicity_box_le_assouad(square_target, eset, koch4_target):
    cases = [
        (square_target, (4e-3, 6.4e-2, 6), ([1 / 16, 1 / 32, 1 / 64, 1 / 128], [0.6, 0.3], 12)),
        (eset, (1e-5, 1e-2, 8), ([1 / 16, 1 / 32, 1 / 64, 1 / 128], np.geomspace(1e-3, 3e-2, 8), 12)),
        (koch4_target, (3.0**-4, 3.0**-1, 7), ([1 / 3, 1 / 9, 1 / 27], [0.45, 0.3], 16)),
    ]
    for target, box_args, (ratios, Rg, nc) in cases:
        b = dim.box_dimension(target, *box_args)
        a = dim.assouad_dimension(target, ratios, Rg, centers=nc)
        assert b.value <= a.value + 0.1


def test_scale_invariance(square_target):
    est1 = dim.box_dimension(square_target, 4e-3, 6.4e-2, 6)
    scaled = dim.point_set_target(square_target.points * 10.0, "scaled")
    est2 = dim.box_dimension(scaled, 4e-2, 6.4e-1, 6)
    assert abs(est1.value - est2.value) < 0.02


def test_covering_sandwich(square_target, koch4_target, eset):
    for target, rs in [
        (square_target, (0.01, 0.05)),
        (koch4_target, (0.02, 0.1)),
        (eset, (1e-3, 1e-4)),
    ]:
        for r in rs:
            cover, packing = dim.covering_number(target, r)
            assert packing <= cover <= (2**2) * packing


def test_csv_and_json(tmp_path, square_target):
    est = dim.assouad_dimension(square_target, [1 / 16, 1 / 32], [0.5], centers=4)
    path = tmp_path / "rows.csv"
    dim.write_csv(est, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "center_x,center_y,R,r,N_r,slope"
    assert len(lines) > 1
    obj = est.to_json()
    assert '"kind": "assouad"' in obj


def full_scan_cover_count(pts_lex, r, reach):
    """The scan greedy examining every point for every ball."""
    covered = np.zeros(len(pts_lex), dtype=bool)
    count = 0
    for ptr in range(len(pts_lex)):
        if covered[ptr]:
            continue
        du2 = ((pts_lex - pts_lex[ptr]) ** 2).sum(axis=1)
        if reach:
            du2[covered] = np.inf
            cand = np.where(du2 <= r * r)[0]
            c = pts_lex[cand[int(du2[cand].argmax())]]
            covered |= ((pts_lex - c) ** 2).sum(axis=1) <= r * r
        else:
            covered |= du2 <= r * r
        count += 1
    return count


@pytest.mark.parametrize("seed", range(8))
def test_windowed_scan_matches_full_scan(seed):
    """Repeated x values and radii equal to inter-point distances, both exact
    (points on the 1/4 lattice, a 3-4-5 distance) and as rounded floats."""
    rng = np.random.default_rng(seed)
    n = 120
    lattice = rng.integers(0, 12, size=(n, 2)) / 4.0
    xs = rng.choice(rng.random(15), size=n)  # 15 distinct x values
    floats = np.stack([xs, rng.random(n)], axis=1)
    for pts in (lattice, floats):
        pts = dim._lex_sorted(pts)
        pairs = rng.integers(0, n, size=(6, 2))
        radii = [float(np.sqrt(((pts[i] - pts[j]) ** 2).sum())) for i, j in pairs]
        for r in [1.25, 0.5, 0.25, *(r for r in radii if r > 0)]:
            for reach in (True, False):
                assert dim._scan_cover_count(pts, r, reach) == full_scan_cover_count(pts, r, reach)
