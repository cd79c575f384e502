import itertools
import json
import math
import re
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whardy import fields as F
from whardy import geometry
from whardy import inequalities as iq
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




@pytest.mark.parametrize("h", [1e-5, 1e-320, 0.999 * 2.0**-13])
def test_grid_size_checked_before_allocation(unit_square, monkeypatch, h):
    monkeypatch.setattr(F, "_all_cell_centers", lambda *a: pytest.fail("grid allocated"))
    with pytest.raises(ParameterError, match=f"cells, more than the {4**13} allowed"):
        F.make_grid(unit_square, h)


def test_grid_limit_admits_the_square_at_level_12(unit_square):
    # the unit square's decomposition grid at max level 12: h = 2 / 4096 / 4
    # from the corner (0, 0)
    assert F.grid_dims(unit_square, 2.0**-13, (0.0, 0.0)) == (8192, 8192)


def test_pth_power_out_of_range_raises_naming_p(grid128):
    fx = F.sample_function(grid128, lambda x, y: x)  # 0 < x < 1
    with pytest.raises(ParameterError, match=r"\|f\|\^1000000.0 underflows"):
        F.weighted_lp_norm(fx, 1e6)
    with pytest.raises(ParameterError, match=r"\|f\|\^1000000.0 overflows"):
        F.weighted_lp_norm(fx.with_values(2.0 * fx.values), 1e6)
    # x^200 underflows to 0 below x = 0.03 only: a valid quadrature
    with np.errstate(under="raise"):
        with pytest.raises(FloatingPointError):
            fx.values ** 200
    assert F.weighted_lp_norm(fx, 200.0) > 0


def test_non_finite_samples_inside_the_domain_raise(l_shape):
    grid = F.make_grid(l_shape, 1 / 32)
    # exp(1000 x) overflows from x = 0.7098, inside the L, first at the centres
    # of column 23; no warning is issued
    with pytest.raises(ParameterError, match="sampled function is not finite at the cell "
                                             r"centre \(0.734375, 0.015625\)"):
        F.sample_function(grid, lambda x, y: np.exp(1000.0 * x))
    with pytest.raises(ParameterError, match="not finite"):
        F.sample_function(grid, lambda x, y: np.log(x - 0.5))
    # NaN outside the domain (the L's missing quarter) is masked away
    f = F.sample_function(grid, lambda x, y: np.where((x > 0.5) & (y > 0.5), np.nan, x))
    assert np.isfinite(f.values).all() and f.values[~grid.mask].max() == 0.0


def test_norm_leaving_the_float_range_at_h_squared_names_p_and_the_exponent():
    """sum |f|^2 is finite, that sum times h^2 is not."""
    side = 2.0**497
    grid = F.make_grid(geometry.make_domain("unit_square", side=side), side / 32)
    f = grid.with_values(np.where(grid.mask, 1e100, 0.0))
    with pytest.raises(ParameterError, match=re.escape(
            f"the L^2.0 norm with weight d^(0.0) leaves the float range: its sum times "
            f"h^2 = {side / 32!r}^2 is not finite")):
        F.weighted_lp_norm(f, 2.0)
    with pytest.raises(ParameterError, match=re.escape("L^3.0 norm with weight d^(-0.5)")):
        F.weighted_lp_norm(f.with_values(f.values * 1e-10), 3.0, -0.5)
    assert F.weighted_lp_norm(f.with_values(f.values * 1e-100), 2.0) == pytest.approx(
        side * math.sqrt(float(grid.quad_mask.sum()) / 32**2), rel=1e-15)


def test_dump_load_roundtrip(grid128, unit_square):
    rng = np.random.default_rng(3)
    f = grid128.with_values(np.where(grid128.mask, rng.standard_normal(grid128.dims), 0))
    back = F.load_grid(F.dump_grid(f), unit_square)
    assert np.array_equal(back.values, f.values)
    assert np.array_equal(back.mask, f.mask)
    assert back.h == f.h


def test_mask_runs_match_a_loop(l_shape):
    grid = F.make_grid(l_shape, 1 / 16)
    rng = np.random.default_rng(0)
    masks = [grid.mask, ~grid.mask, np.ones(grid.dims, bool), rng.random(grid.dims) < 0.5]
    dumps = [F.dump_grid(replace(grid, mask=mask)) for mask in masks]
    for mask, data in zip(masks, dumps):
        header = json.loads(data.split(b"\n", 1)[0])
        runs = [len(list(run)) for _, run in itertools.groupby(mask.ravel())]
        assert (header["mask_first"], header["mask_rle"]) == (bool(mask.flat[0]), runs)
    # the L-shape's own mask, several runs, decodes back
    assert np.array_equal(F.load_grid(dumps[0], l_shape).mask, grid.mask)


# ---------------------------------------------------------------------------
# exact sums

# m 2^e for 54-bit m: subnormals, where ldexp rounds, up to 2^1000
scaled_floats = st.builds(math.ldexp, st.integers(-(2**53), 2**53), st.integers(-1130, 947))
finite_floats = st.one_of(scaled_floats, st.floats(-(2.0**1000), 2.0**1000))


@st.composite
def cancelling_lists(draw):
    """Lists of floats, some with their exact negatives mixed in."""
    values = draw(st.lists(finite_floats, max_size=24))
    keep = draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))
    return draw(st.permutations(values + [-x for x, k in zip(values, keep) if k]))


def assert_is_fsum(got, values):
    want = math.fsum(values)
    if want == 0.0:  # fsum may return -0.0; zero sums are +0.0 here
        assert got == 0.0 and math.copysign(1.0, got) == 1.0
    else:
        assert got.hex() == want.hex()


@settings(max_examples=300)
@given(cancelling_lists())
def test_exact_sum_is_fsum(values):
    for block in (geometry.BLOCK, 7):  # lengths 0-48 span several blocks of 7
        with mock.patch.object(geometry, "BLOCK", block):
            assert_is_fsum(F._exact_sum(np.array(values, dtype=float)), values)


def test_exact_sum_is_fsum_on_long_arrays():
    rng = np.random.default_rng(4)
    for n in (geometry.BLOCK - 1, geometry.BLOCK, geometry.BLOCK + 1, 3 * geometry.BLOCK + 5):
        v = rng.standard_normal(n) * 2.0 ** rng.integers(-1074, 1000, n)
        for x in (v, np.concatenate([v, -v[::-1]]), rng.standard_normal(n) ** 2):
            assert_is_fsum(F._exact_sum(x), x.tolist())


@pytest.mark.parametrize("values", [[], [0.0], [-0.0], [-0.0, -0.0], [1.5, -1.5],
                                    [5e-324, -5e-324]])
def test_exact_sum_of_zero_is_positive_zero(values):
    got = F._exact_sum(np.array(values, dtype=float))
    assert got == 0.0 and math.copysign(1.0, got) == 1.0


@pytest.mark.parametrize("values", [[math.nan, 1.0], [1.0, math.inf], [-math.inf, 2.0],
                                    [math.inf, math.nan]])
def test_exact_sum_of_non_finite_values_is_fsum(values):
    got, want = F._exact_sum(np.array(values)), math.fsum(values)
    assert got == want or (math.isnan(got) and math.isnan(want))


def test_exact_sum_errors():
    with pytest.raises(ValueError):
        F._exact_sum(np.array([math.inf, 1.0, -math.inf]))
    with pytest.raises(OverflowError):
        F._exact_sum(np.array([1.7e308, 1.7e308]))
    # partial sums beyond the float range are exact too
    assert F._exact_sum(np.array([1.7e308, 1.7e308, -1.7e308])) == 1.7e308


def test_weighted_mean_forms_the_weights_once(grid128, monkeypatch):
    """Both sums of a weighted mean share one d^power array, with the
    floats of a weight formed per sum."""
    f = F.sample_function(grid128, lambda x, y: np.sin(3 * x) + y * y)
    want = F.weighted_mean_zero(f, 2.0, -0.3)
    sel, power = f.quad_mask, -0.6
    num = F._weighted_sum(f.values[sel], f.dist[sel], power)
    den = F._weighted_sum(np.ones(int(sel.sum())), f.dist[sel], power)
    assert np.array_equal(want.values[f.mask], f.values[f.mask] - num / den)
    calls = []
    weight = F.distance_weight

    def counted(dist, power):
        calls.append(power)
        return weight(dist, power)

    monkeypatch.setattr(F, "distance_weight", counted)
    got = F.weighted_mean_zero(f, 2.0, -0.3)
    assert calls == [power]
    assert got.values.tobytes() == want.values.tobytes()
    # the same errors as a sum with its own weights: a weight, the sum of
    # the weights and a product that leave the float range
    big = f.with_values(np.full(f.dims, 1e308))
    ones = np.ones(int(sel.sum()))
    for g, power, values in ((f, -145.6, ones), (f, -127.0, ones), (big, -1.0, big.values[sel])):
        with pytest.raises(ParameterError) as ref:
            F._weighted_sum(values, g.dist[sel], power)
        with pytest.raises(ParameterError, match=re.escape(str(ref.value))):
            F._weighted_mean(g, power)


def test_weighted_sum_out_of_range_names_the_exponent():
    dist = np.array([0.5, 0.25, 2.0])
    message = r"weight exponent {} overflows: a term or sum weighted by d\^\({}\) leaves"
    # finite terms 1.2e308, 0.6e308 and 0.3e308 total 2.1e308
    with pytest.raises(ParameterError, match=message.format(-1.0, -1.0)):
        F._weighted_sum(np.array([6e307, 1.5e307, 6e307]), dist, -1.0)
    # 1e300 * 0.25^-10 = 1.05e306 is finite, +-1e305 * 0.25^-10 are not
    for big in (1e305, -1e305):
        with pytest.raises(ParameterError, match=message.format(-10.0, -10.0)):
            F._weighted_sum(np.array([1.0, big, 1.0]), dist, -10.0)
    assert F._weighted_sum(np.array([1.0, 1e300, 1.0]), dist, -10.0) == math.fsum(
        [0.5**-10, 1e300 * 0.25**-10, 2.0**-10])
    # NaN and inf values pass through
    assert math.isnan(F._weighted_sum(np.array([1.0, math.nan, 1e305]), dist, -10.0))
    assert F._weighted_sum(np.array([1.0, -math.inf, 1.0]), dist, -10.0) == -math.inf
    # at power 0 the values are summed alone
    with pytest.raises(ParameterError, match=message.format(0.0, 0.0)):
        F._weighted_sum(np.array([1.7e308, 1.7e308]), dist[:2], 0.0)


def test_quadrature_makes_no_list_of_cell_values(unit_square, monkeypatch):
    """Each weighted quadrature of improved_poincare_ratio allocates at most
    a few float arrays per cell at its peak; a list of Python floats would
    add 32 bytes per cell."""
    grid = F.make_grid(unit_square, 1 / 256)
    rng = np.random.default_rng(0)
    f = grid.with_values(np.where(grid.mask, rng.standard_normal(grid.dims), 0.0))
    monkeypatch.setattr(geometry, "BLOCK", 1 << 12)
    peaks = []

    def measured(fn):
        def call(*args):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = fn(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            return out
        return call

    for name in ("weighted_mean_zero", "weighted_lp_norm"):
        monkeypatch.setattr(iq, name, measured(getattr(F, name)))
    tracemalloc.start()
    try:
        iq.improved_poincare_ratio(f, 2.0, 0.5)
    finally:
        tracemalloc.stop()
    cells = grid.dims[0] * grid.dims[1]
    assert len(peaks) == 3 and max(peaks) < 30 * cells, [p / cells for p in peaks]

