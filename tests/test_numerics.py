import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special

from oracles import (
    _adaptive_gk,
    _integrate_multi,
    _segment,
    find_root,
)
from trialopt.numerics import (
    SCALAR,
    NumericError,
    _one_sided_critical,
    bivariate_normal_cdf,
    bivariate_upper_orthant,
    std_normal_pdf,
)

# Frozen from the brute-force 2-D quadrature oracle below (epsabs 1e-12).
ORTHANT_1_05_07 = 0.12148860474472144
# Frozen from 200-step bisection of the cdf.
QUANTILE_975 = 1.9599639845400527


def orthant_by_quadrature(h, k, rho):
    """Independent oracle: adaptive 2-D quadrature of the bivariate density."""

    def dens(y, x):
        det = 1.0 - rho * rho
        q = (x * x - 2.0 * rho * x * y + y * y) / det
        return math.exp(-0.5 * q) / (2.0 * math.pi * math.sqrt(det))

    val, err = integrate.dblquad(dens, h, 12.0, lambda _: k, lambda _: 12.0,
                                 epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-9
    return val


def orthant_by_conditioning(h, k, rho):
    """Second oracle, robust near |rho| = 1: 1-D integral of the
    conditional tail P(Z2 > k | Z1 = x)."""
    from scipy.special import ndtr

    spread = math.sqrt((1.0 - rho) * (1.0 + rho))

    def f(x):
        return (math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
                * ndtr(-(k - rho * x) / spread))

    # at epsrel 1e-14 quad warns that roundoff stalls it on some inputs
    val, err = integrate.quad(f, h, 12.0, epsabs=1e-14, epsrel=1e-13, limit=800)
    assert err < 1e-11
    return val


class TestScalarNormal:
    def test_quantile_frozen(self):
        assert _one_sided_critical(0.025) == pytest.approx(QUANTILE_975, abs=1e-6)

    def test_one_sided_critical_is_minus_ndtri(self):
        # no edge branches: ndtri's own limits give the thresholds at 0 and 1
        levels = [0.0, -0.0, 1.0, 5e-324,
                  *np.logspace(-300.0, 0.0, 601, endpoint=False).tolist()]
        for level in levels:
            got = _one_sided_critical(level)
            assert type(got) is float
            assert got.hex() == float(-special.ndtri(level)).hex(), level
        assert _one_sided_critical(0.0) == _one_sided_critical(-0.0) == math.inf
        assert _one_sided_critical(1.0) == -math.inf

    def test_pdf_at_zero(self):
        assert std_normal_pdf(0.0) == pytest.approx(0.3989423, abs=1e-7)

    def test_pdf_is_silent_and_zero_far_out(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (1e300, -1e300, 2e154, -math.inf, math.inf):
                assert std_normal_pdf(x) == 0.0
            assert std_normal_pdf(np.array([-1e300, 1e300])).tolist() == [0.0, 0.0]
            assert math.isnan(std_normal_pdf(math.nan))

    def test_pdf_values_are_the_plain_expression(self):
        rng = np.random.default_rng(25)
        x = np.concatenate((np.linspace(-40.0, 40.0, 8001), rng.uniform(-40.0, 40.0, 4000),
                            rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(-300, 150, 4000)))
        want = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        assert bit_pattern(std_normal_pdf(x)) == bit_pattern(want)
        assert bit_pattern([std_normal_pdf(float(v)) for v in x[::16]]) == bit_pattern(want[::16])


def bit_pattern(values):
    """The 64 bits of each double, so that -0.0 differs from 0.0 and NaNs compare."""
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


class TestScalarSpecialFunctions:
    """numerics.SCALAR (scipy's cython_special routines, called on Python
    floats) against scipy.special's ufuncs on arrays, which stay the
    oracle of the scalar route."""

    EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-300, -1e-300,
             1e300, -1e300]

    @staticmethod
    def assert_bitwise(name, *args):
        args = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
        with np.errstate(invalid="ignore", divide="ignore"):
            want = getattr(special, name)(*args)
        got = [getattr(SCALAR, name)(*point) for point in zip(*(a.ravel().tolist() for a in args))]
        assert all(type(v) is float for v in got)
        assert bit_pattern(got) == bit_pattern(want.ravel())

    def test_ndtr(self):
        rng = np.random.default_rng(251)
        self.assert_bitwise("ndtr", np.concatenate((
            np.linspace(-40.0, 40.0, 8001), rng.uniform(-40.0, 40.0, 20000),
            rng.choice([-1.0, 1.0], 5000) * 10.0 ** rng.uniform(-300.0, 300.0, 5000),
            self.EDGES)))
        # the orthant's limits may get ints
        assert SCALAR.ndtr(-2) == SCALAR.ndtr(-2.0)

    def test_ndtri(self):
        rng = np.random.default_rng(252)
        below_one = math.nextafter(1.0, 0.0)
        self.assert_bitwise("ndtri", np.concatenate((
            10.0 ** rng.uniform(-300.0, 0.0, 20000), rng.uniform(0.0, 1.0, 20000),
            1.0 - 10.0 ** rng.uniform(-16.0, -1.0, 5000),
            [1e-300, 1.0 - 1e-16, below_one, 0.5, 1.0, 1.5, -0.5], self.EDGES)))

    def test_owens_t(self):
        rng = np.random.default_rng(253)
        n = 30000
        h = np.concatenate((rng.uniform(-40.0, 40.0, n), np.repeat(self.EDGES, len(self.EDGES))))
        a = np.concatenate((rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12.0, 8.0, n),
                            np.tile(self.EDGES, len(self.EDGES))))
        self.assert_bitwise("owens_t", h, a)


class TestOrthant:
    def test_independence(self):
        assert bivariate_upper_orthant(0.0, 0.0, 0.0) == pytest.approx(0.25, abs=1e-15)

    def test_against_frozen_quadrature_oracle(self):
        assert bivariate_upper_orthant(1.0, 0.5, 0.7) == pytest.approx(
            ORTHANT_1_05_07, abs=1e-9)

    @pytest.mark.parametrize("h,k,rho", [
        (1.0, 0.5, 0.7), (-0.4, 1.3, -0.6), (2.0, -1.0, 0.95),
        (0.3, 0.3, 0.3), (-2.0, -2.0, -0.9),
    ])
    def test_against_live_quadrature_oracle(self, h, k, rho):
        want = orthant_by_quadrature(h, k, rho)
        assert bivariate_upper_orthant(h, k, rho) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("rho", [0.924, 0.9251, 0.995, 0.9999,
                                     -0.93, -0.995, -0.9999])
    def test_near_singular_correlations(self, rho):
        # 2-D quadrature cannot resolve the ridge here; condition instead
        for h, k in [(1.5, 1.2), (-0.5, 2.0), (0.0, -1.0)]:
            want = orthant_by_conditioning(h, k, rho)
            assert bivariate_upper_orthant(h, k, rho) == pytest.approx(
                want, abs=1e-11)

    def test_exact_limits_at_unit_rho(self):
        assert bivariate_upper_orthant(0.5, -0.3, 1.0) == pytest.approx(
            1.0 - special.ndtr(0.5), abs=1e-15)
        want = special.ndtr(0.8) - special.ndtr(0.5)
        assert bivariate_upper_orthant(0.5, -0.8, -1.0) == pytest.approx(want, abs=1e-15)
        assert bivariate_upper_orthant(1.0, -0.5, -1.0) == 0.0

    def test_monotone_in_rho(self):
        for h in (-1.0, 0.2, 1.5):
            for k in (-0.5, 0.8):
                values = [bivariate_upper_orthant(h, k, float(r))
                          for r in np.linspace(-0.999, 0.999, 21)]
                assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_rho_domain(self):
        with pytest.raises(ValueError):
            bivariate_upper_orthant(0.0, 0.0, 1.01)

    @pytest.mark.parametrize("h,k,rho", [(math.nan, 0.1, 0.5), (0.1, math.nan, 0.5),
                                         (0.1, 0.2, math.nan)])
    def test_nan_rejected(self, h, k, rho):
        with pytest.raises(ValueError):
            bivariate_upper_orthant(h, k, rho)

    def test_infinite_limits(self):
        assert bivariate_upper_orthant(math.inf, 0.0, 0.5) == 0.0
        assert bivariate_upper_orthant(-math.inf, 0.7, 0.5) == pytest.approx(
            1.0 - special.ndtr(0.7), abs=1e-15)

    @pytest.mark.parametrize("h, k", [(-math.inf, 0.7), (0.7, -math.inf)])
    def test_minus_infinite_limit_leaves_the_other_margin(self, h, k):
        for rho in (-1.0, -0.5, 0.0, 0.5, 1.0):
            assert bivariate_upper_orthant(h, k, rho) == pytest.approx(
                1.0 - special.ndtr(0.7), abs=1e-15)

    def test_against_conditioning_oracle_random(self):
        rng = np.random.default_rng(20261018)
        for h, k, rho in zip(rng.uniform(-6.0, 6.0, 4000), rng.uniform(-6.0, 6.0, 4000),
                             rng.uniform(-0.9999, 0.9999, 4000)):
            h, k, rho = float(h), float(k), float(rho)
            assert abs(bivariate_upper_orthant(h, k, rho)
                       - orthant_by_conditioning(h, k, rho)) <= 1e-10

    def test_against_conditioning_oracle_level_regime(self):
        # the level condition queries h, k in [1.9, 5] at rho = sqrt(lambda_S)
        rng = np.random.default_rng(7)
        for h, k, lam in zip(rng.uniform(1.9, 5.0, 1000), rng.uniform(1.9, 5.0, 1000),
                             rng.uniform(0.01, 0.99, 1000)):
            h, k, rho = float(h), float(k), math.sqrt(float(lam))
            assert abs(bivariate_upper_orthant(h, k, rho)
                       - orthant_by_conditioning(h, k, rho)) <= 1e-10


class TestBivariateCdf:
    @staticmethod
    def assert_against_conditioning(x, y, rho, got):
        # P(X <= x, Y <= y) is the upper orthant of (-X, -Y) beyond (-x, -y)
        want = [orthant_by_conditioning(-a, -b, r) for a, b, r in
                zip(np.ravel(x), np.ravel(np.broadcast_to(y, np.shape(x))),
                    np.ravel(np.broadcast_to(rho, np.shape(x))))]
        assert np.max(np.abs(np.ravel(got) - want)) <= 1e-10

    def test_vectorized_against_conditioning_at_limits(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-5.0, 5.0, 600)
        y = rng.uniform(-5.0, 5.0, 600)
        rho = rng.uniform(-0.99, 0.99, 600)
        x[:40] = 0.0
        y[20:60] = 0.0
        rho[115] = rho[105] = 0.0
        got = bivariate_normal_cdf(x, y, rho, np.sqrt((1.0 - rho) * (1.0 + rho)))
        self.assert_against_conditioning(x, y, rho, got)
        # x = 0, y = 0 and both at once, amid regular elements
        rng = np.random.default_rng(12)
        x = rng.uniform(-5.0, 5.0, 900)
        y = rng.uniform(-5.0, 5.0, 900)
        rho = rng.uniform(-0.99, 0.99, 900)
        x[::7] = 0.0
        y[::11] = 0.0
        rho_c = np.sqrt((1.0 - rho) * (1.0 + rho))
        self.assert_against_conditioning(x, y, rho, bivariate_normal_cdf(x, y, rho, rho_c))
        # a broadcast column of bounds against a row of lines, as a grid
        # row, gives each row's values bit for bit
        x2, y2 = np.stack((x[:60], x[60:120])), y[:60]
        got = bivariate_normal_cdf(x2, y2, rho[:60], rho_c[:60])
        self.assert_against_conditioning(x2, y2, rho[:60], got)
        for row, x_row in zip(got, x2):
            assert row.tolist() == bivariate_normal_cdf(x_row, y2, rho[:60], rho_c[:60]).tolist()
        # scalars
        for args in [(0.0, 0.4, 0.3, math.sqrt(0.91)), (0.2, 0.0, -0.3, math.sqrt(0.91)),
                     (0.0, 0.0, 0.3, math.sqrt(0.91)), (0.2, 0.4, 0.3, math.sqrt(0.91))]:
            self.assert_against_conditioning(*args[:3], bivariate_normal_cdf(*args))


def gk_integral(f, lo, hi, abs_tol, breakpoints=(), max_segments=2048):
    """The oracle's adaptive G7/K15 rule over [lo, hi], scalar result."""
    total, _ = _adaptive_gk(f, lo, hi, abs_tol, breakpoints, max_segments, init_width=2.0)
    return float(total[0])


class TestSegment:
    """The oracle's linear-Gaussian step in z_Sc."""

    def test_normalization(self):
        assert _segment(1.0, 0.0, -math.inf, math.inf) == pytest.approx(1.0, abs=1e-15)

    def test_odd_symmetry(self):
        assert _segment(0.0, 1.0, -math.inf, math.inf) == pytest.approx(0.0, abs=1e-15)

    def test_half_line_mean(self):
        got = _segment(0.0, 1.0, 0.0, math.inf)
        assert got == pytest.approx(0.3989422804014327, abs=1e-9)
        # cross-check by quadrature
        want = gk_integral(lambda z: z * std_normal_pdf(z), 0.0, 8.0, abs_tol=1e-12)
        assert got == pytest.approx(want, abs=1e-9)

    def test_additivity(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b, c = np.sort(rng.uniform(-5.0, 5.0, size=3))
            c0, c1 = rng.uniform(-2.0, 2.0, size=2)
            left = _segment(c0, c1, a, b)
            right = _segment(c0, c1, b, c)
            whole = _segment(c0, c1, a, c)
            assert left + right == pytest.approx(whole, abs=1e-12)


class TestIntegrate1D:
    """The oracle's adaptive Gauss-Kronrod quadrature."""

    def test_gaussian_mass(self):
        got = gk_integral(std_normal_pdf, -8.0, 8.0, abs_tol=1e-9)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_odd_moment(self):
        got = gk_integral(lambda z: z * std_normal_pdf(z), -8.0, 8.0, abs_tol=1e-9)
        assert got == pytest.approx(0.0, abs=1e-9)

    def test_second_moment(self):
        got = gk_integral(lambda z: z * z * std_normal_pdf(z), -8.0, 8.0, abs_tol=1e-9)
        assert got == pytest.approx(1.0, abs=1e-8)

    def test_breakpoint_jump(self):
        # integrand jumps at 0.37; exact value is the sum of the two pieces
        f = lambda z: np.where(z < 0.37, 1.0, 3.0)
        got = gk_integral(f, -1.0, 1.0, abs_tol=1e-10, breakpoints=[0.37])
        assert got == pytest.approx(1.37 + 3 * 0.63, abs=1e-10)

    def test_budget_exhaustion_carries_estimate(self):
        f = lambda z: np.sin(40.0 * z) ** 2
        with pytest.raises(NumericError, match=r"estimate \[.+\], error bound"):
            gk_integral(f, 0.0, 6.0, abs_tol=1e-14, max_segments=4)

    def test_infinite_interval_truncates(self):
        # the stratified oracle integrates over +-8 SDs, whatever the breakpoints
        got = _integrate_multi(std_normal_pdf, [-math.inf, math.inf])
        assert got.shape == (1,)
        assert got[0] == pytest.approx(1.0, abs=1e-9)


class TestFindRoot:
    """The oracle level solve's Newton method for an increasing convex g,
    started right of the root."""

    def test_linear(self):
        assert find_root(lambda x: (x - 0.5, 1.0), 1.0) == 0.5

    def test_matches_quantile(self):
        # Phi is increasing and convex left of 0
        got = find_root(lambda x: (special.ndtr(x) - 0.025, std_normal_pdf(x)), 0.0)
        assert got == pytest.approx(-QUANTILE_975, abs=1e-12)

    def test_start_left_of_root_rejected(self):
        with pytest.raises(NumericError, match="left of the root"):
            find_root(lambda x: (x - 0.5, 1.0), 0.0)

    def test_values_within_tol_are_roots(self):
        assert find_root(lambda x: (-1e-17, 1.0), 0.3, tol=1e-16) == 0.3
        start = math.nextafter(0.5, 1.0)
        assert find_root(lambda x: (x - 0.5, 1.0), start, tol=1e-15) == start
        with pytest.raises(NumericError, match="left of the root"):
            find_root(lambda x: (-1e-17, 1.0), 0.3)

    def test_overshoot_returns_closer_end(self):
        # a slope read slightly low, as rounding can, carries the step past
        # the root; the end of the step is the closer of the two points
        got = find_root(lambda x: (x - 0.5, 0.999), 1.0)
        assert got == pytest.approx(0.4995, abs=1e-6)
        assert got < 0.5

    def test_iteration_cap_raises(self):
        # x^4 has a quadruple root: each step only removes a quarter of x
        with pytest.raises(NumericError, match="did not converge in 50 iterations"):
            find_root(lambda x: (x ** 4, 4.0 * x ** 3), 1.0)

    def test_deterministic(self):
        g = lambda x: (x - math.cos(x), 1.0 + math.sin(x))
        first = find_root(g, 1.0)
        assert first == find_root(g, 1.0)
        assert first == pytest.approx(0.7390851332151607, abs=1e-15)
