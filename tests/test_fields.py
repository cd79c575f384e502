import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from whardy import fields as F
from whardy.errors import ParameterError


@pytest.fixture(scope="module")
def grid128(unit_square):
    return F.make_grid(unit_square, 1 / 128)


def test_norm_constant(grid128):
    one = F.sample_function(grid128, lambda x, y: np.ones_like(x))
    assert abs(F.weighted_lp_norm(one, 2) - 1.0) <= 2 * grid128.h


def test_norm_linear(grid128):
    fx = F.sample_function(grid128, lambda x, y: x)
    want = math.sqrt(1.0 / 3.0)
    got = F.weighted_lp_norm(fx, 2)
    assert abs(got - want) / want <= 10 * grid128.h**2


def test_weighted_integral_distance(grid128):
    # closed form by the 4-triangle split: integral of d over the square is 1/6
    one = F.sample_function(grid128, lambda x, y: np.ones_like(x))
    assert F.weighted_integral(one, power=1.0) == pytest.approx(1 / 6, abs=5 * grid128.h / 6)
    # and of d^2 it is 1/24 (used by the Poincare closed-form oracle)
    assert F.weighted_integral(one, power=2.0) == pytest.approx(1 / 24, abs=1e-4)


def test_norm_errors(grid128):
    f = F.sample_function(grid128, lambda x, y: x)
    with pytest.raises(ParameterError):
        F.weighted_lp_norm(f, 0.5)


def test_norm_homogeneity(grid128):
    rng = np.random.default_rng(0)
    f = grid128.with_values(np.where(grid128.mask, rng.standard_normal(grid128.dims), 0.0))
    a = -3.7
    n1 = F.weighted_lp_norm(f.with_values(a * f.values), 3.0, 1.0)
    n2 = abs(a) * F.weighted_lp_norm(f, 3.0, 1.0)
    assert n1 == pytest.approx(n2, rel=1e-12)


def test_triangle_inequality(grid128):
    rng = np.random.default_rng(1)
    for _ in range(5):
        fa = grid128.with_values(np.where(grid128.mask, rng.standard_normal(grid128.dims), 0))
        fb = grid128.with_values(np.where(grid128.mask, rng.standard_normal(grid128.dims), 0))
        s = grid128.with_values(fa.values + fb.values)
        for p, power in ((2.0, 0.0), (3.0, 0.5)):
            lhs = F.weighted_lp_norm(s, p, power)
            rhs = F.weighted_lp_norm(fa, p, power) + F.weighted_lp_norm(fb, p, power)
            assert lhs <= rhs + 1e-10


def test_gradient_linear_exact(grid128):
    fx = F.sample_function(grid128, lambda x, y: x)
    g = F.gradient(fx)
    m = g[0].mask
    assert np.allclose(g[0].values[m], 1.0)
    assert np.allclose(g[1].values[m], 0.0)


def test_gradient_norm_sums_the_partials_of_every_field(grid128):
    fa = F.sample_function(grid128, lambda x, y: 3.0 * x)
    fb = F.sample_function(grid128, lambda x, y: 4.0 * y)
    one, both = F.gradient_norm(fa), F.gradient_norm(fa, fb)
    m = F.gradient(fa)[0].mask
    assert np.array_equal(one.mask, m) and np.array_equal(both.mask, m)
    assert np.allclose(one.values[m], 3.0) and np.allclose(both.values[m], 5.0)
    assert (one.values[~m] == 0.0).all() and (both.values[~m] == 0.0).all()


def test_gradient_quadratic_central_exact(grid128):
    q = F.sample_function(grid128, lambda x, y: x**2 + y**2)
    g = F.gradient(q)
    cc = grid128.cell_centers()
    m = grid128.mask.copy()
    m[:1, :] = m[-1:, :] = False
    m[:, :1] = m[:, -1:] = False
    shifted = m.copy()
    shifted[1:-1, 1:-1] &= (
        grid128.mask[:-2, 1:-1]
        & grid128.mask[2:, 1:-1]
        & grid128.mask[1:-1, :-2]
        & grid128.mask[1:-1, 2:]
    )
    assert np.allclose(g[0].values[shifted], 2 * cc[..., 0][shifted], atol=1e-12)
    assert np.allclose(g[1].values[shifted], 2 * cc[..., 1][shifted], atol=1e-12)


def test_gradient_trig_second_order(unit_square):
    def f(x, y):
        return np.sin(3 * x) * np.cos(2 * y)

    def dfx(x, y):
        return 3 * np.cos(3 * x) * np.cos(2 * y)

    errs = []
    for h in (1 / 32, 1 / 64):
        grid = F.make_grid(unit_square, h)
        g = F.gradient(F.sample_function(grid, f))
        inner = g[0].mask.copy()
        inner[:2, :] = inner[-2:, :] = inner[:, :2] = inner[:, -2:] = False
        cc = grid.cell_centers()
        errs.append(np.abs(g[0].values - dfx(cc[..., 0], cc[..., 1]))[inner].max())
    assert errs[1] <= errs[0] / 3.0  # about O(h^2)


def test_gradient_linearity(grid128):
    rng = np.random.default_rng(2)
    fa = grid128.with_values(np.where(grid128.mask, rng.standard_normal(grid128.dims), 0))
    fb = grid128.with_values(np.where(grid128.mask, rng.standard_normal(grid128.dims), 0))
    combo = grid128.with_values(2.0 * fa.values - 0.5 * fb.values)
    ga, gb, gc = F.gradient(fa), F.gradient(fb), F.gradient(combo)
    for k in range(2):
        want = 2.0 * ga[k].values - 0.5 * gb[k].values
        assert np.array_equal(gc[k].values, want) or np.allclose(
            gc[k].values, want, atol=1e-15
        )


def test_weighted_mean_zero(grid128):
    f5 = F.sample_function(grid128, lambda x, y: np.full_like(x, 5.0))
    out = F.weighted_mean_zero(f5, 2.0, 0.3)
    assert np.allclose(out.values[out.mask], 0.0)

    fx = F.sample_function(grid128, lambda x, y: x)
    out = F.weighted_mean_zero(fx, 2.0, 0.0)
    cc = grid128.cell_centers()
    assert np.allclose(out.values[out.mask], (cc[..., 0] - 0.5)[out.mask], atol=1e-12)

    twice = F.weighted_mean_zero(out, 2.0, 0.0)
    assert np.allclose(twice.values, out.values, atol=1e-14)
    # the weighted integral actually vanishes
    assert abs(F.weighted_integral(out)) <= 1e-12




def test_collar_count(l_shape):
    grid = F.make_grid(l_shape, 1 / 64)
    assert grid.collar_count == int((grid.mask & (grid.dist < grid.h / 2)).sum())


def test_dump_load_roundtrip(tmp_path, grid128, unit_square):
    rng = np.random.default_rng(3)
    f = grid128.with_values(np.where(grid128.mask, rng.standard_normal(grid128.dims), 0))
    path = tmp_path / "grid.bin"
    F.dump_grid(f, path)
    back = F.load_grid(path, unit_square)
    assert np.array_equal(back.values, f.values)
    assert np.array_equal(back.mask, f.mask)
    assert back.h == f.h


def test_mask_runs_match_a_loop(tmp_path, l_shape):
    grid = F.make_grid(l_shape, 1 / 16)
    rng = np.random.default_rng(0)
    masks = [grid.mask, ~grid.mask, np.ones(grid.dims, bool), rng.random(grid.dims) < 0.5]
    for k, mask in enumerate(masks):
        path = tmp_path / f"{k}.bin"
        F.dump_grid(replace(grid, mask=mask), path)
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        runs = [len(list(run)) for _, run in itertools.groupby(mask.ravel())]
        assert (header["mask_first"], header["mask_rle"]) == (bool(mask.flat[0]), runs)
    # the L-shape's own mask, several runs, decodes back
    assert np.array_equal(F.load_grid(tmp_path / "0.bin", l_shape).mask, grid.mask)
