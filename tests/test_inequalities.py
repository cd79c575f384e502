import math
import tracemalloc
import warnings
from dataclasses import asdict
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from whardy import decomp as dc
from whardy import divergence as dv
from whardy import fields as F
from whardy import geometry as geo
from whardy import inequalities as iq
from whardy.errors import ParameterError


@pytest.fixture(scope="module")
def grid256(unit_square):
    return F.make_grid(unit_square, 1 / 256)


@pytest.fixture(scope="module")
def grid64(unit_square):
    return F.make_grid(unit_square, 1 / 64)


# ---------------------------------------------------------------------------
# improved Poincare


def test_poincare_constant_degenerate(grid64):
    rep = iq.improved_poincare_ratio(
        F.sample_function(grid64, lambda x, y: np.full_like(x, 2.0)), 2.0, 0.0
    )
    assert rep.degenerate is not None


def test_poincare_closed_form(grid256):
    # f = x - 1/2 at beta = 0, p = 2: the two sides have closed forms
    # (1/12)^(1/2) and, by the 4-triangle split of the square,
    # (int d^2)^(1/2) = (1/24)^(1/2), so the ratio is sqrt(2)
    f = F.sample_function(grid256, lambda x, y: x)
    rep = iq.improved_poincare_ratio(f, 2.0, 0.0)
    assert rep.lhs == pytest.approx(math.sqrt(1 / 12), rel=1e-3)
    assert rep.rhs == pytest.approx(math.sqrt(1 / 24), rel=1e-2)
    assert rep.ratio == pytest.approx(math.sqrt(2.0), abs=0.02)


def test_poincare_constant_shift_invariance(grid64):
    f = F.sample_function(grid64, lambda x, y: np.sin(3 * x) + y)
    g = grid64.with_values(f.values + 7.5)
    r1 = iq.improved_poincare_ratio(f, 2.0, -0.2)
    r2 = iq.improved_poincare_ratio(g, 2.0, -0.2)
    assert r1.ratio == pytest.approx(r2.ratio, rel=1e-10)


def test_poincare_scale_invariance(grid64):
    f = F.sample_function(grid64, lambda x, y: np.cos(2 * x) * y)
    g = grid64.with_values(-4.0 * f.values)
    r1 = iq.improved_poincare_ratio(f, 2.0, 0.0)
    r2 = iq.improved_poincare_ratio(g, 2.0, 0.0)
    assert r1.ratio == pytest.approx(r2.ratio, rel=1e-10)


@pytest.mark.parametrize("h", [1 / 32, 1 / 64])
def test_checkerboard_is_in_the_central_difference_kernel(unit_square, h):
    # (-1)^(i+j) has zero central differences at every interior cell; only
    # the one-sided boundary cells, at distance h/2, see it. There each
    # gradient component is 2/h, so at beta = 0 the weighted gradient norm
    # squared is 4 h (4/h edge cells of weight 1, 4 corners of weight 2) and
    # the ratio ||f|| / ||d grad f|| = 1 / (2 sqrt h) grows as h -> 0.
    grid = F.make_grid(unit_square, h)
    i, j = np.indices(grid.dims)
    f = grid.with_values((-1.0) ** (i + j))
    interior = (slice(1, -1), slice(1, -1))
    for comp in F.gradient(f):
        assert (comp.values[interior] == 0.0).all()
        assert (comp.values != 0.0).any()
    rep = iq.improved_poincare_ratio(f, 2.0, 0.0)
    assert rep.ratio == pytest.approx(1.0 / (2.0 * math.sqrt(h)), rel=1e-12)


def test_poincare_refinement_family(koch2):
    rng = np.random.default_rng(0)
    coeffs = [(rng.standard_normal((2, 2)), rng.uniform(0, 6, (2, 2))) for _ in range(6)]

    def make(c, ph):
        def fn(x, y):
            v = np.zeros_like(x)
            for i in range(2):
                for j in range(2):
                    v += c[i, j] * np.cos((i + 1) * x + (j + 1) * y + ph[i, j])
            return v

        return fn

    maxima = []
    for h in (1 / 64, 1 / 128):
        grid = F.make_grid(koch2, h)
        ratios = [
            iq.improved_poincare_ratio(F.sample_function(grid, make(c, ph)), 2.0, -0.3).ratio
            for c, ph in coeffs
        ]
        maxima.append(max(ratios))
    assert maxima[1] <= 1.15 * maxima[0]
    assert maxima[1] >= 0.85 * maxima[0]


# ---------------------------------------------------------------------------
# fractional Poincare


def test_fractional_constant(grid64):
    rep = iq.fractional_poincare_ratio(
        F.sample_function(grid64, lambda x, y: np.ones_like(x)),
        2.0, 0.0, 0.5, 0.5, 20_000,
    )
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert math.isnan(rep.ratio) and rep.degenerate == "constant input"


def test_fractional_sample_floor(grid64):
    with pytest.raises(ParameterError):
        iq.fractional_poincare_ratio(
            F.sample_function(grid64, lambda x, y: x), 2.0, 0.0, 0.5, 0.5, 5000
        )
    with pytest.raises(ParameterError):
        iq.fractional_poincare_ratio(
            F.sample_function(grid64, lambda x, y: x), 2.0, 0.0, 1.5, 0.5, 20_000
        )


def test_fractional_sample_ceiling_checked_before_any_draw(grid64, monkeypatch):
    f = F.sample_function(grid64, lambda x, y: x)
    monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("samples drawn"))
    with pytest.raises(ParameterError, match="more than the 100000000 allowed"):
        iq.fractional_poincare_ratio(f, 2.0, 0.0, 0.5, 0.5, iq.MAX_MC_SAMPLES + 1)


def test_fractional_seed_consistency(grid64):
    f = F.sample_function(grid64, lambda x, y: x)
    vals = [
        iq.fractional_poincare_ratio(f, 2.0, 0.0, 0.5, 0.5, 200_000, seed=s).ratio
        for s in range(3)
    ]
    mean = float(np.mean(vals))
    assert all(abs(v - mean) / mean < 0.05 for v in vals)


def test_fractional_tau_scaling(grid64):
    f = F.sample_function(grid64, lambda x, y: x)
    s, n = 0.5, 2
    r_small = iq.fractional_poincare_ratio(f, 2.0, 0.0, s, 0.25, 300_000, seed=7).ratio
    r_big = iq.fractional_poincare_ratio(f, 2.0, 0.0, s, 0.5, 300_000, seed=7).ratio
    assert r_small / r_big <= (0.25 / 0.5) ** (s - n) * 1.5


def single_pass_fractional(u, p, beta, s, tau, mc_samples, seed):
    """The estimator with every sample's temporaries alive at once:
    (lhs, rhs, extra) of ``fractional_poincare_ratio``."""
    n = 2
    u0 = F.weighted_mean_zero(u, p, beta)
    lhs = F.weighted_lp_norm(u0, p, beta * p)
    rng = np.random.default_rng(seed)
    nx, ny = u0.dims
    ii, jj = np.nonzero(u0.mask)
    pick = rng.integers(0, len(ii), size=mc_samples)
    xi, xj = ii[pick], jj[pick]
    cx, cy = F.cell_center_xy(u0.h, u0.origin, xi, xj)
    dx = u0.dist[xi, xj]
    ux = u0.values[xi, xj]
    R = tau * dx
    rho = R * np.sqrt(rng.random(mc_samples))
    phi = rng.random(mc_samples) * (2.0 * math.pi)
    yx = cx + rho * np.cos(phi)
    yy = cy + rho * np.sin(phi)
    ki = np.floor((yx - u0.origin[0]) / u0.h).astype(np.int64)
    kj = np.floor((yy - u0.origin[1]) / u0.h).astype(np.int64)
    valid = (ki >= 0) & (ki < nx) & (kj >= 0) & (kj < ny)
    ki = np.clip(ki, 0, nx - 1)
    kj = np.clip(kj, 0, ny - 1)
    valid &= u0.mask[ki, kj]
    dropped = int(mc_samples - valid.sum())
    uy = u0.values[ki, kj]
    dy = geo.boundary_distances(u0.domain, np.stack([yx, yy], axis=1))
    delta = np.minimum(dx, dy)
    dist2 = np.maximum((yx - cx) ** 2 + (yy - cy) ** 2, 1e-300)
    integrand = (np.abs(ux - uy) ** p * dist2 ** (-(n + s * p) / 2.0)
                 * delta ** ((beta + s) * p))
    weights = np.where(valid, integrand * (math.pi * R**2), 0.0)
    area = float(u0.mask.sum()) * u0.h**2
    est = area * float(weights.mean())
    se = area * float(weights.std(ddof=1)) / math.sqrt(mc_samples)
    rhs = est ** (1.0 / p) if est > 0 else 0.0
    ratio = lhs / rhs if rhs > 0 else math.nan
    extra = {
        "normalized_ratio": ratio * tau ** (n - s),
        "rhs_power_estimate": est,
        "rhs_power_se": se,
        "rhs_relative_se": se / (p * est) if est > 0 else math.inf,
        "dropped_samples": dropped,
    }
    return lhs, rhs, extra


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@pytest.fixture(scope="module")
def frac_fields(unit_square, slit_square, koch2):
    fn = lambda x, y: np.sin(2 * x) + 0.5 * y  # noqa: E731
    return [F.sample_function(F.make_grid(dom, 1 / 64), fn)
            for dom in (unit_square, slit_square, koch2)]


def assert_blocked_matches_single_pass(u, samples, seed):
    rep = iq.fractional_poincare_ratio(u, 2.0, -0.2, 0.5, 0.5, samples, seed=seed)
    lhs, rhs, extra = single_pass_fractional(u, 2.0, -0.2, 0.5, 0.5, samples, seed)
    assert same_bits(rep.lhs, lhs) and same_bits(rep.rhs, rhs)
    assert rep.extra.keys() == extra.keys()
    assert rep.extra["dropped_samples"] == extra["dropped_samples"]
    assert all(same_bits(rep.extra[k], v) for k, v in extra.items())


@pytest.mark.parametrize("samples", [10_000, 65_536, 65_537, 200_003])
def test_blocked_fractional_matches_single_pass(frac_fields, samples):
    for u in frac_fields:
        assert_blocked_matches_single_pass(u, samples, seed=samples)


def test_blocked_fractional_with_small_blocks(frac_fields, monkeypatch):
    monkeypatch.setattr(iq.geometry, "BLOCK", 1000)
    for u in frac_fields:
        assert_blocked_matches_single_pass(u, 65_537, seed=3)


def test_fractional_memory_stays_bounded(grid64):
    """10^6 samples keep a few arrays of one float per sample, not ~20."""
    u = F.sample_function(grid64, lambda x, y: np.sin(2 * x) + 0.5 * y)
    tracemalloc.start()
    try:
        iq.fractional_poincare_ratio(u, 2.0, 0.0, 0.5, 0.5, 1_000_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_fractional_draws_stay_bounded(grid64):
    """The picks are int32 and the uniforms are drawn block by block, so
    10^6 samples keep about three arrays of one float per sample."""
    u = F.sample_function(grid64, lambda x, y: np.sin(2 * x) + 0.5 * y)
    tracemalloc.start()
    try:
        iq.fractional_poincare_ratio(u, 2.0, 0.0, 0.5, 0.5, 1_000_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def traced_peak(fn, *args, **kwargs):
    """Bytes traced at the peak of fn(*args, **kwargs) beyond those alive
    before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_fractional_working_set_at_a_million_samples(grid64):
    """8 bytes a sample (7.6 MiB) plus one block's working set: 9.7 MiB
    traced, where stored picks took 14.6 and weights.std() and blocks of
    BLOCK samples 27.3."""
    u = F.sample_function(grid64, lambda x, y: np.sin(2 * x) + 0.5 * y)
    peak = traced_peak(iq.fractional_poincare_ratio, u, 2.0, 0.0, 0.5, 0.5, 1_000_000, seed=1)
    assert peak <= 12 * 2**20


def test_fractional_holds_8_bytes_a_sample(grid64):
    """The float64 weights alone: no stored picks and no second array of
    weights for the moments (32.6 MiB traced; 48.9 with the int32 picks)."""
    u = F.sample_function(grid64, lambda x, y: np.sin(2 * x) + 0.5 * y)
    samples = 4_000_000
    peak = traced_peak(iq.fractional_poincare_ratio, u, 2.0, 0.0, 0.5, 0.5, samples, seed=1)
    assert peak <= 8 * samples + 6 * 2**20


@pytest.mark.parametrize("n", [1, 3, 4096, 65_537, 2**31 - 1])
@pytest.mark.parametrize("block", [7, 4096, 8192])
def test_block_pick_draws_concatenate_to_one_draw(n, block):
    """fractional_poincare_ratio skips its picks with one draw and draws
    them again block by block, and relies on this: PCG64 keeps its spare
    32-bit half-word in the generator's state, so int32 draws in blocks of
    any length equal one draw and leave the generator in the same state."""
    size = 3 * block + 5
    whole, blocks = np.random.default_rng(n), np.random.default_rng(n)
    want = whole.integers(0, n, size=size, dtype=np.int32)
    got = np.concatenate([blocks.integers(0, n, size=min(block, size - lo), dtype=np.int32)
                          for lo in range(0, size, block)])
    assert np.array_equal(got, want)
    assert blocks.bit_generator.state == whole.bit_generator.state


@pytest.mark.parametrize("domain, mib", [("unit_square", 2), ("koch3", 2)])
def test_fractional_block_working_set(request, monkeypatch, domain, mib):
    """Every block's temporaries together, boundary-distance tiles included,
    stay within a few MiB: 1.7 MiB traced on the square's 4 edges and on
    Koch 3's 192, whose tiles span BLOCK // 8 pairs (5.1 MiB when they
    spanned BLOCK); blocks of BLOCK samples took 13.1 on both."""
    grid = F.make_grid(request.getfixturevalue(domain), 1 / 64)
    u = F.sample_function(grid, lambda x, y: np.sin(2 * x) + 0.5 * y)
    block, peaks = iq._fractional_block, []

    def traced_block(*args):
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        dropped = block(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return dropped

    monkeypatch.setattr(iq, "_fractional_block", traced_block)
    tracemalloc.start()
    try:
        iq.fractional_poincare_ratio(u, 2.0, 0.0, 0.5, 0.5, 300_000, seed=1)
    finally:
        tracemalloc.stop()
    assert peaks and max(peaks) <= mib * 2**20


@pytest.mark.parametrize("n", [2, 10_000, 65_537, 1_000_003, 3_000_001])
@pytest.mark.parametrize("kind", ["uniform", "lognormal", "sparse"])
def test_in_place_moments_equal_numpys(n, kind):
    rng = np.random.default_rng(n)
    x = {"uniform": lambda: rng.random(n),
         "lognormal": lambda: rng.lognormal(0.0, 4.0, n),
         "sparse": lambda: np.where(rng.random(n) < 0.01, rng.random(n) * 1e5, 0.0)}[kind]()
    want = (float(x.mean()), float(x.std(ddof=1)))
    assert iq._mean_and_std(x) == want


def test_in_place_moments_scaled_where_squares_may_overflow():
    """Deviations near 1e153 take the scaled path; where numpy's squares
    stay finite the result keeps its bits, where they overflow it stays
    finite and close to the exact value."""
    rng = np.random.default_rng(5)
    x = rng.random(10_000) * 1e150
    x[17] = 3e153  # n max|x - mean|^2 passes 2^1022, the sum of squares does not
    want = float(x.std(ddof=1))
    assert math.isfinite(want) and iq._mean_and_std(x.copy())[1] == want
    x *= 1e3  # now the squares overflow
    with np.errstate(over="ignore"):
        assert not math.isfinite(float(x.std(ddof=1)))
    assert iq._mean_and_std(x.copy())[1] == pytest.approx(exact_std(x), rel=1e-12)


def exact_std(x):
    """The sample standard deviation of the floats x, exactly, rounded once."""
    vals = [Fraction(v) for v in x.tolist()]
    mean = sum(vals) / len(vals)
    var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
    with localcontext() as ctx:
        ctx.prec = 40
        return float((Decimal(var.numerator) / Decimal(var.denominator)).sqrt())


def test_fractional_standard_error_finite_where_squares_overflow(unit_square, monkeypatch):
    """At beta = -80 on h = 1/16 the weights reach 1e209: finite, but their
    squared deviations are not. The standard error is the exact one, and
    every other report field keeps the single-pass estimator's bits."""
    u = F.sample_function(F.make_grid(unit_square, 1 / 16), lambda x, y: np.sin(2 * x) + 0.5 * y)
    moments, seen = iq._mean_and_std, []
    monkeypatch.setattr(iq, "_mean_and_std", lambda x: (seen.append(x.copy()), moments(x))[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = iq.fractional_poincare_ratio(u, 2.0, -80.0, 0.5, 0.5, 10_000, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs, rhs, extra = single_pass_fractional(u, 2.0, -80.0, 0.5, 0.5, 10_000, 0)
    assert not math.isfinite(extra["rhs_power_se"])  # the numpy std overflows
    (weights,) = seen
    area = float(u.mask.sum()) * u.h**2
    se = rep.extra["rhs_power_se"]
    assert se == pytest.approx(area * exact_std(weights) / math.sqrt(10_000), rel=1e-12)
    assert rep.extra["rhs_relative_se"] == se / (2.0 * rep.extra["rhs_power_estimate"])
    assert same_bits(rep.lhs, lhs) and same_bits(rep.rhs, rhs)
    assert same_bits(rep.ratio, lhs / rhs)
    for key in ("rhs_power_estimate", "normalized_ratio", "dropped_samples"):
        assert same_bits(rep.extra[key], extra[key])


# ---------------------------------------------------------------------------
# Korn


def test_korn_symmetric_field(grid64):
    u = (
        F.sample_function(grid64, lambda x, y: x),
        F.sample_function(grid64, lambda x, y: -y),
    )
    rep = iq.korn_ratio(u, 2.0, 0.0)
    assert rep.ratio == pytest.approx(1.0, abs=1e-12)


def test_korn_rigid_degenerate(grid64):
    u = (
        F.sample_function(grid64, lambda x, y: 3.0 * y),
        F.sample_function(grid64, lambda x, y: -3.0 * x),
    )
    rep = iq.korn_ratio(u, 2.0, 0.0)
    assert rep.degenerate is not None


def test_korn_components_must_share_one_grid(grid64, l_shape):
    other = F.make_grid(l_shape, 1 / 64)
    with pytest.raises(ParameterError, match="share one grid"):
        iq.korn_ratio((grid64, other), 2.0, 0.0)


def korn_frobenius_identity(u, beta, p):
    gx = F.gradient(u[0])
    gy = F.gradient(u[1])
    m = gx[0].mask
    G = [
        [gx[0].values, gx[1].values],
        [gy[0].values, gy[1].values],
    ]
    eps2 = G[0][0] ** 2 + G[1][1] ** 2 + 2 * (0.5 * (G[0][1] + G[1][0])) ** 2
    eta2 = 2 * (0.5 * (G[0][1] - G[1][0])) ** 2
    du2 = G[0][0] ** 2 + G[0][1] ** 2 + G[1][0] ** 2 + G[1][1] ** 2
    return float(np.abs(du2 - eps2 - eta2)[m].max())


def test_korn_frobenius_identity_and_lower_bound(grid64):
    rng = np.random.default_rng(1)
    for k in range(5):
        c = rng.standard_normal((2, 3, 3))

        def comp(i):
            def fn(x, y):
                v = np.zeros_like(x)
                for a in range(3):
                    for b in range(3):
                        if a + b <= 2:
                            v += c[i, a, b] * x**a * y**b
                return v

            return fn

        u = (F.sample_function(grid64, comp(0)), F.sample_function(grid64, comp(1)))
        assert korn_frobenius_identity(u, 0.0, 2.0) <= 1e-10
        rep = iq.korn_ratio(u, 2.0, -0.2)
        if rep.degenerate is None:
            assert rep.ratio >= 1.0 - 1e-9


def test_korn_rotation_mean_is_the_fsum_mean(l_shape):
    """eta_mean_removed is the d^(beta p)-weighted mean of the rotation
    eta = (d u_x / dy - d u_y / dx) / 2 over the quadrature cells, each sum
    correctly rounded: bit for bit math.fsum's."""
    grid = F.make_grid(l_shape, 1 / 64)
    u = (F.sample_function(grid, lambda x, y: x * y**2 - 3 * y),
         F.sample_function(grid, lambda x, y: x**2 + 0.5 * x * y))
    gx, gy = F.gradient(u[0]), F.gradient(u[1])
    sel = gx[0].quad_mask
    eta = (0.5 * (gx[1].values - gy[0].values))[sel]
    for beta in (0.0, -0.2, 0.4):
        w = grid.dist[sel] ** (2 * beta)
        want = math.fsum((eta * w).tolist()) / math.fsum(w.tolist())
        assert iq.korn_ratio(u, 2.0, beta).extra["eta_mean_removed"] == want


def test_korn_refinement_family(l_shape):
    rng = np.random.default_rng(2)
    coeffs = [rng.standard_normal((2, 4, 4)) for _ in range(6)]

    def make(c, i):
        def fn(x, y):
            v = np.zeros_like(x)
            for a in range(4):
                for b in range(4):
                    if a + b <= 3:
                        v += c[i, a, b] * x**a * y**b
            return v

        return fn

    maxima = []
    for h in (1 / 64, 1 / 128):
        grid = F.make_grid(l_shape, h)
        vals = []
        for c in coeffs:
            u = (F.sample_function(grid, make(c, 0)), F.sample_function(grid, make(c, 1)))
            rep = iq.korn_ratio(u, 2.0, -0.2)
            if rep.degenerate is None:
                vals.append(rep.ratio)
        maxima.append(max(vals))
    assert maxima[1] <= 1.2 * maxima[0]


# ---------------------------------------------------------------------------
# sharp maximal and Fefferman-Stein


def test_sharp_maximal_constant(grid64):
    f = F.sample_function(grid64, lambda x, y: np.full_like(x, 4.2))
    m = iq.sharp_maximal(f, 1.0, scales=6)
    assert np.allclose(m.values, 0.0)


def test_sharp_maximal_halfplane(grid64):
    f = F.sample_function(grid64, lambda x, y: (x < 0.5).astype(float))
    m = iq.sharp_maximal(f, 1.0, scales=6)
    vals = m.values[m.mask]
    assert np.all(vals >= 0)
    assert vals.max() > 0
    # cells whose every admissible cube misses the interface stay zero
    assert (vals == 0).sum() > 0
    cc = grid64.cell_centers()
    far = m.mask & (np.abs(cc[..., 0] - 0.5) > 0.45)
    assert np.allclose(m.values[far], 0.0)


def test_sharp_maximal_scaling(grid64):
    rng = np.random.default_rng(3)
    f = grid64.with_values(np.where(grid64.mask, rng.standard_normal(grid64.dims), 0))
    m1 = iq.sharp_maximal(f, 1.0, scales=5)
    m2 = iq.sharp_maximal(f.with_values(-2.5 * f.values), 1.0, scales=5)
    assert np.allclose(m2.values, 2.5 * m1.values, atol=1e-12)


def test_sharp_maximal_restricted_le_full(unit_square):
    grid = F.make_grid(unit_square, 1 / 40)
    rng = np.random.default_rng(4)
    f = grid.with_values(np.where(grid.mask, rng.standard_normal(grid.dims), 0))
    restricted = iq.sharp_maximal(f, 1.0, scales=5)
    sides = iq._cube_family(grid.dims, 5)
    out = np.zeros(grid.dims)
    vals = np.where(grid.mask, f.values, 0.0)
    for w in sides:
        for sx in range(w):
            for sy in range(w):
                iq._accumulate_oscillation(f, vals, out, w, sx, sy, 1.0)
    full = np.where(grid.mask, out, 0.0)
    assert np.all(restricted.values <= full + 1e-12)


def test_sharp_maximal_sigma_validation(grid64):
    f = F.sample_function(grid64, lambda x, y: x)
    with pytest.raises(ParameterError):
        iq.sharp_maximal(f, 0.5)


def test_sharp_maximal_rejects_boxes_beyond_the_float_range(grid64):
    f = F.sample_function(grid64, lambda x, y: x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="sigma = 1e\\+308 scales the cubes' boxes"):
            iq.sharp_maximal(f, 1e308)
        # boxes of half-width 5e299 are finite: none lies inside, so it is 0
        assert not iq.sharp_maximal(f, 1e300).values.any()


def test_fefferman_stein_checkerboard(grid64):
    f = F.sample_function(
        grid64, lambda x, y: np.sign(np.sin(8 * np.pi * x) * np.sin(8 * np.pi * y))
    )
    rep = iq.fefferman_stein_ratio(f, 2.0, 0.0, 1.0, scales=6)
    assert rep.degenerate is None
    assert rep.ratio <= 1e23  # the crude a-priori bound, trivially satisfied
    assert rep.ratio < 100  # measured value is small and recorded
    assert rep.extra["ratio_over_sigma_n"] == pytest.approx(rep.ratio)


def test_fefferman_stein_zero_degenerate(grid64):
    rep = iq.fefferman_stein_ratio(
        F.sample_function(grid64, lambda x, y: np.zeros_like(x)), 2.0, 0.0, 1.0
    )
    assert rep.degenerate == "zero input"


def test_fefferman_stein_sigma_trend(grid64):
    f = F.sample_function(
        grid64, lambda x, y: np.sign(np.sin(8 * np.pi * x) * np.sin(8 * np.pi * y))
    )
    normalized = []
    for sigma in (1.0, 2.0, 4.0):
        rep = iq.fefferman_stein_ratio(f, 2.0, 0.0, sigma, scales=6)
        normalized.append(rep.extra["ratio_over_sigma_n"])
    assert normalized[0] >= normalized[1] >= normalized[2]


def test_report_serialization(tmp_path):
    from whardy import cli

    assert cli.main(["poincare", "--h", "0.0625", "--count", "1", "--out", str(tmp_path)]) == 0
    import json

    obj = json.loads((tmp_path / "improved_poincare.jsonl").read_text().splitlines()[0])
    assert obj["inequality"] == "improved_poincare"
    assert (tmp_path / "improved_poincare.csv").read_text().startswith("inequality,domain")


# ---------------------------------------------------------------------------
# the one report rule


def _poincare(grid, fn):
    return iq.improved_poincare_ratio(F.sample_function(grid, fn), 2.0, -0.2)


def _fractional(grid, fn):
    return iq.fractional_poincare_ratio(F.sample_function(grid, fn), 2.0, 0.0, 0.5, 0.5, 10_000)


def _korn(grid, fn):
    u = (F.sample_function(grid, fn), F.sample_function(grid, lambda x, y: -fn(y, x)))
    return iq.korn_ratio(u, 2.0, 0.0)


def _fefferman_stein(grid, fn):
    return iq.fefferman_stein_ratio(F.sample_function(grid, fn), 2.0, 0.0, 2.0, scales=4)


# each producer on a field it measures and on one whose rhs is 0: a
# constant, or for Korn the rotation (y, -x)
PRODUCERS = {
    "improved_poincare": (_poincare, lambda x, y: np.sin(3 * x) + y, lambda x, y: 0 * x + 2.0),
    "fractional_poincare": (_fractional, lambda x, y: x, lambda x, y: 0 * x + 1.0),
    "korn": (_korn, lambda x, y: x * y, lambda x, y: y),
    "fefferman_stein": (_fefferman_stein, lambda x, y: np.sign(np.sin(8 * x)),
                        lambda x, y: 0 * x),
}


def assert_report_rule(rep, grid, degenerate: bool):
    assert rep.domain == grid.domain.name and same_bits(rep.h, grid.h)
    assert (rep.rhs == 0.0) == degenerate
    if degenerate:
        assert math.isnan(rep.ratio) and rep.degenerate
    else:
        assert rep.rhs > 0 and same_bits(rep.ratio, rep.lhs / rep.rhs)
        assert math.isfinite(rep.ratio)


@pytest.mark.parametrize("name", PRODUCERS)
@pytest.mark.parametrize("degenerate", [False, True])
def test_every_inequality_report_takes_the_one_rule(l_shape, name, degenerate):
    make, fn, zero_rhs = PRODUCERS[name]
    grid = F.make_grid(l_shape, 1 / 32)
    rep = make(grid, zero_rhs if degenerate else fn)
    assert rep.inequality == name
    assert_report_rule(rep, grid, degenerate)


@pytest.mark.parametrize("degenerate", [False, True])
def test_divergence_report_takes_the_one_rule(square_trees, degenerate):
    tree = square_trees[5]
    grid = dc.decomposition_grid(tree)
    f = grid if degenerate else dc.covered_mean_zero(
        grid, np.random.default_rng(2).standard_normal(grid.dims))
    _, rep = dv.solve_divergence(tree, f, 2.0, 0.0)
    assert rep.inequality == "divergence"
    assert_report_rule(rep, grid, degenerate)
    assert rep.degenerate == ("zero data" if degenerate else None)


def test_fractional_resolution_degenerate_takes_the_one_rule(slit_square):
    """A positive left side over a vanished sampled seminorm: NaN, with the
    producer's reason."""
    grid = F.make_grid(slit_square, 0.5)
    rep = iq.fractional_poincare_ratio(F.sample_function(grid, lambda x, y: x),
                                       2.0, 0.0, 0.5, 0.5, 10_000)
    assert rep.lhs > 0 and rep.degenerate.startswith("resolution insufficient")
    assert_report_rule(rep, grid, True)
    assert math.isnan(rep.extra["normalized_ratio"])


@pytest.mark.parametrize("lhs, rhs", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0),
                                      (1.0, math.nan), (-math.inf, 0.0), (1e300, 1e-300)])
def test_report_with_a_non_finite_side_or_ratio_raises(grid64, lhs, rhs):
    with pytest.raises(ParameterError, match="korn: .* must be finite"):
        iq.InequalityReport("korn", grid64, {}, lhs, rhs, degenerate="named")


def test_report_with_zero_rhs_must_name_a_reason(grid64):
    with pytest.raises(ValueError, match="must name why"):
        iq.InequalityReport("korn", grid64, {}, 1.0, 0.0)
    rep = iq.InequalityReport("korn", grid64, {}, 0.0, 0.0, degenerate="0/0")
    assert math.isnan(rep.ratio)


def test_report_fields_are_those_the_writers_read(grid64):
    rep = iq.InequalityReport("korn", grid64, {"p": 2.0}, 3.0, 2.0, test_function="t")
    assert sorted(asdict(rep)) == ["degenerate", "domain", "extra", "h", "inequality", "lhs",
                                   "params", "ratio", "rhs", "test_function"]
    assert (rep.domain, rep.h, rep.ratio) == ("unit_square", grid64.h, 1.5)
