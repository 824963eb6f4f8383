import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

from elspec import InputError, bartlett_constants, method_threshold
from elspec.bartlett import chi2_quantile

# The levels the callers pass (plan levels and the 1.0 - alpha forms) plus a
# grid over (0, 1) that reaches into both tails.
QUANTILE_LEVELS = sorted(
    {0.5, 0.8, 0.9, 0.95, 0.99, 0.999}
    | {1.0 - a for a in (0.2, 0.1, 0.05, 0.01, 0.001)}
    | {float(x) for x in np.linspace(0.001, 0.999, 41)}
    | {1e-12, 1e-6, 1.0 - 1e-6, 1.0 - 1e-12}
)


class TestEstimateBartlett:
    def test_symmetric_two_point(self):
        # psi in {-1, +1} equally: mu3 = 0, mu4 = mu2^2 = 1 => b = 1/2
        rows = np.array([[-1.0], [1.0]] * 10)
        b = bartlett_constants(rows.T)[0]
        assert b == pytest.approx(0.5, rel=1e-12)

    def test_constant_psi_degenerate(self):
        assert np.isnan(bartlett_constants(np.full((1, 20), 3.0))[0])

    def test_standard_normal_limit(self):
        # normal moments mu4 = 3 mu2^2, mu3 = 0 => b -> 3/2
        rows = np.random.default_rng(0).standard_normal((100_000, 1))
        b = bartlett_constants(rows.T)[0]
        assert b == pytest.approx(1.5, abs=0.1)

    @given(c=st.floats(-50.0, 50.0).filter(lambda x: abs(x) > 1e-3), seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance(self, c, seed):
        rows = np.random.default_rng(seed).standard_normal((200, 1))
        b0 = bartlett_constants(rows.T)[0]
        b1 = bartlett_constants((c * rows).T)[0]
        assert b1 == pytest.approx(b0, rel=1e-9)

    @pytest.mark.parametrize("scale", [1e-150, 1e-6, 1e100])
    def test_extreme_scales(self, scale):
        # the moments are taken of the column scaled to max |c| = 1, so
        # neither c^4 underflows nor overflows
        rows = np.random.default_rng(3).exponential(size=(80, 1))
        b0 = bartlett_constants(rows.T)[0]
        assert bartlett_constants((scale * rows).T)[0] == pytest.approx(b0, rel=1e-12, abs=0)

    def test_tiny_two_point_column(self):
        # centred to +-1.7e-154, whose fourth power underflows to zero
        assert bartlett_constants(np.array([[0.0, 3.4e-154]]))[0] == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("column", [[0.0, 5e-324], [0.0, 1.5e-323, 0.0, 1.5e-323],
                                        [1.5e308, 1.5e308, -1.5e308, -1.5e308]])
    def test_two_point_columns_at_the_float_range_ends(self, column):
        # a subnormal mean would round (to 0 for [0, 5e-324], leaving the
        # column uncentred), and a sum of 1.5e308's overflows
        assert bartlett_constants(np.array([column]))[0] == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("power", [-900, -60, 60, 900])
    def test_power_of_two_scale_is_bitwise_invisible(self, power):
        rows = np.random.default_rng(8).standard_t(1.5, size=(40, 25))
        np.testing.assert_array_equal(bartlett_constants(np.ldexp(rows, power)),
                                      bartlett_constants(rows))

    @pytest.mark.parametrize("value", [0.0, 3.0, 0.1, -2.7e-200, 1e300])
    def test_constant_column_is_nan(self, value):
        # centred by its common value, a constant column is exactly zero
        assert np.isnan(bartlett_constants(np.full((1, 37), value))[0])

    @given(
        column=st.one_of(
            st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=60),
            # two-point columns: the bound is attained when mu3 = 0
            st.tuples(
                st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.integers(1, 30), st.integers(1, 30)
            ).map(lambda t: [t[0]] * t[2] + [t[1]] * t[3]),
            # skewed (exponential) and heavy-tailed (Student t, 1.5 df) draws
            st.tuples(st.integers(0, 2**16), st.integers(2, 300)).map(
                lambda t: np.random.default_rng(t[0]).exponential(size=t[1])
            ),
            st.tuples(st.integers(0, 2**16), st.integers(2, 300)).map(
                lambda t: np.random.default_rng(t[0]).standard_t(1.5, size=t[1])
            ),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_estimate_at_least_one_half(self, column):
        # Pearson's inequality mu4/mu2^2 >= 1 + mu3^2/mu2^3 holds for the
        # moments of any sample, so b >= 1/2 and the eb scale 1 + b/n > 1.
        # Two-point columns with mu3 = 0 attain the bound, where rounding
        # may leave b a few ulps below it.
        b = bartlett_constants(np.asarray(column, dtype=float)[None])[0]
        if np.isnan(b):  # a constant column has no estimate
            return
        assert b >= 0.5 - 1e-12

    @pytest.mark.parametrize("shape", [(1000, 35), (2, 4000), (50, 3)])
    @pytest.mark.parametrize("draw", ["normal", "exponential", "t"])
    def test_stacked_constants_match_power_form(self, shape, draw):
        rng = np.random.default_rng(7)
        columns = {"normal": rng.standard_normal, "exponential": rng.exponential,
                   "t": lambda size: rng.standard_t(2.5, size=size)}[draw](size=shape)
        c = columns - columns.mean(axis=1, keepdims=True)
        mu2, mu3, mu4 = (np.mean(c**r, axis=1) for r in (2, 3, 4))
        want = mu4 / (2.0 * mu2**2) - mu3**2 / (3.0 * mu2**3)
        np.testing.assert_allclose(bartlett_constants(columns), want, rtol=1e-13, atol=0)

class TestChi2Quantile:
    @pytest.mark.parametrize("k", range(1, 13))
    def test_bitwise_equal_to_scipy_stats(self, k):
        for level in QUANTILE_LEVELS:
            assert chi2_quantile(level, k) == float(chi2.ppf(level, k)), level

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.5, 1.5, float("nan"), float("inf")])
    def test_level_outside_open_unit_interval_rejected(self, level):
        with pytest.raises(InputError):
            chi2_quantile(level, 2)


class TestCorrectedThreshold:
    def test_plain_chi2_quantile_df2(self):
        # chi2_{2,0.9} = -2 ln(0.1), exact for two degrees of freedom
        thr = method_threshold("tb", 2, 1 - 0.1, 50, 0.0)
        assert thr == pytest.approx(-2.0 * math.log(0.1), rel=1e-12)
        assert thr == pytest.approx(4.60517, abs=1e-5)

    def test_scaled_threshold(self):
        thr = method_threshold("tb", 1, 1 - 0.1, 30, 1.5)
        assert thr == pytest.approx(chi2.ppf(0.9, 1) * 1.05, rel=1e-12)
        assert thr == pytest.approx(2.84082, abs=1e-5)

    def test_pathological_scale_rejected(self):
        with pytest.raises(InputError):
            method_threshold("tb", 1, 1 - 0.1, 30, -30.0)

    def test_bad_alpha_rejected(self):
        for alpha in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(InputError):
                method_threshold("tb", 1, 1 - alpha, 30, 0.0)

    @given(bs=st.lists(st.integers(0, 400), min_size=2, max_size=6, unique=True))
    @settings(max_examples=25, deadline=None)
    def test_monotone_increasing_in_b(self, bs):
        thrs = [method_threshold("tb", 1, 1 - 0.1, 40, b / 20.0) for b in sorted(bs)]
        assert all(a < b for a, b in zip(thrs, thrs[1:]))

    def test_continuous_at_zero(self):
        base = method_threshold("tb", 1, 1 - 0.1, 40, 0.0)
        near = method_threshold("tb", 1, 1 - 0.1, 40, 1e-12)
        assert near == pytest.approx(base, rel=1e-10)


class TestMethodThreshold:
    @pytest.mark.parametrize("method", ["el", "ael", "eb"])
    def test_plain_methods_use_the_chi2_quantile(self, method):
        # the supplied constant applies to "tb" alone
        assert method_threshold(method, 2, 0.9, 50, 3.0) == chi2_quantile(0.9, 2)

    def test_unknown_method_rejected(self):
        with pytest.raises(InputError, match="unknown method"):
            method_threshold("bogus", 1, 0.9, 30)
