import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csemb.legendre
from csemb import (
    LegendreExpansion,
    approximation_report,
    constant,
    expansion_eval,
    identity,
    indicator_above,
    legendre_coefficients,
    legendre_table,
    odd_extension,
)

# closed forms for low orders
_CLOSED = {
    2: lambda x: 1.5 * x**2 - 0.5,
    3: lambda x: 2.5 * x**3 - 1.5 * x,
    4: lambda x: (35 * x**4 - 30 * x**2 + 3) / 8,
    5: lambda x: (63 * x**5 - 70 * x**3 + 15 * x) / 8,
}


def indicator_coeffs_analytic(c: float, order: int) -> np.ndarray:
    """Closed-form projection of 1{x >= c}: the definite integral of each
    basis polynomial telescopes through the recursion (independent oracle)."""
    P = legendre_table(order + 1, np.array([c]))[:, 0]
    a = np.empty(order + 1)
    a[0] = (1.0 - c) / 2.0
    r = np.arange(1, order + 1)
    a[1:] = (P[r - 1] - P[r + 1]) / 2.0
    return a


class TestLegendreEval:
    """Values of p(r, x) from ``legendre_table``, the scalar recursion."""

    def test_base_cases(self):
        assert legendre_table(0, 0.37)[0, 0] == 1.0
        assert legendre_table(1, 0.5)[1, 0] == 0.5

    def test_recursion_by_hand(self):
        assert legendre_table(2, 0.5)[2, 0] == pytest.approx(-0.125, abs=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-1.0, max_value=1.0), st.sampled_from([2, 3, 4, 5]))
    def test_matches_closed_forms(self, x, r):
        assert legendre_table(r, x)[r, 0] == pytest.approx(_CLOSED[r](x), abs=1e-12)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            legendre_table(3, 1.0001)
        with pytest.raises(ValueError):
            legendre_table(3, np.array([0.0, -2.0]))


class TestHighOrder:
    def test_table_past_order_1024(self):
        # the monic terms' scale factor passes 2**1024 near this order; the
        # renormalisation keeps every value finite and exact in scale
        x = np.linspace(-1.0, 1.0, 41)
        P = legendre_table(1200, x)
        assert np.all(np.isfinite(P))
        assert np.allclose(P[:, -1], 1.0, rtol=0.0, atol=1e-11)
        assert np.allclose(P[:, 0], (-1.0) ** np.arange(1201), rtol=0.0, atol=1e-11)
        for r in (1023, 1024, 1100, 1200):
            unit = np.zeros(r + 1)
            unit[r] = 1.0
            assert np.allclose(P[r], np.polynomial.legendre.legval(x, unit), rtol=0.0, atol=1e-11)
        coeffs = np.random.default_rng(2).standard_normal(1201)
        assert np.allclose(expansion_eval(LegendreExpansion(coeffs), x), coeffs @ P,
                           rtol=0.0, atol=1e-10)


class TestOrthogonality:
    def test_inner_products(self):
        x, w = np.polynomial.legendre.leggauss(64)
        P = legendre_table(10, x)
        G = (P * w) @ P.T
        expected = np.diag(2.0 / (2 * np.arange(11) + 1))
        assert np.abs(G - expected).max() <= 1e-10


class TestPinnedRule:
    def test_panel_is_numpys_leggauss_bit_for_bit(self):
        # one panel on [-1, 1] is the pinned rule itself, mirrored
        x, w = np.polynomial.legendre.leggauss(csemb.legendre.QUAD_NODES)
        nodes, weights = csemb.legendre._panel_nodes((), 0)
        assert nodes.tobytes() == x.tobytes()
        assert weights.tobytes() == w.tobytes()


class TestCoefficients:
    def test_identity(self):
        e = legendre_coefficients(identity(), 3)
        assert np.allclose(e.coeffs, [0, 1, 0, 0], atol=1e-14)

    def test_constant(self):
        e = legendre_coefficients(constant(1.0), 2)
        assert np.allclose(e.coeffs, [1, 0, 0], atol=1e-14)

    def test_square(self):
        e = legendre_coefficients(lambda x: x**2, 2)
        assert np.allclose(e.coeffs, [1 / 3, 0, 2 / 3], atol=1e-14)

    def test_polynomial_reproduced_exactly(self):
        rng = np.random.default_rng(0)
        for deg in (1, 4, 9):
            c = rng.standard_normal(deg + 1)
            f = lambda x: np.polynomial.polynomial.polyval(x, c)
            e = legendre_coefficients(f, deg + 2)
            rep = approximation_report(f, e)
            assert rep.delta_sup <= 1e-10

    def test_indicator_against_analytic_oracle(self):
        c, order = 0.98, 200
        e = legendre_coefficients(indicator_above(c), order)
        assert np.abs(e.coeffs - indicator_coeffs_analytic(c, order)).max() <= 1e-12

    def test_nonfinite_rejected(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(ValueError):
                legendre_coefficients(lambda x: 1.0 / (x - x), 2)


class TestExpansionEval:
    def test_linear(self):
        assert expansion_eval(LegendreExpansion([0.0, 1.0]), 0.7) == 0.7

    def test_square_exact(self):
        e = LegendreExpansion([1 / 3, 0.0, 2 / 3])
        assert expansion_eval(e, 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_gibbs_regression_value(self):
        # frozen once from the analytic-coefficient oracle
        e = legendre_coefficients(indicator_above(0.98), 180)
        val = expansion_eval(e, 0.5)
        assert abs(val) <= 0.15
        assert val == pytest.approx(-0.0005311185431373922, abs=1e-9)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            expansion_eval(LegendreExpansion([0.0, 1.0]), 1.5)

    def test_matches_scalar_recursion(self):
        rng = np.random.default_rng(1)
        coeffs = rng.standard_normal(9)
        e = LegendreExpansion(coeffs)
        x = rng.uniform(-1, 1, 50)
        P = legendre_table(8, x)
        direct = sum(coeffs[r] * P[r] for r in range(9))
        assert np.allclose(expansion_eval(e, x), direct, atol=1e-13)


class TestApproximationReport:
    def test_exact_representation(self):
        rep = approximation_report(identity(), LegendreExpansion([0.0, 1.0]))
        assert rep.delta_sup == 0.0 and rep.delta_l2 <= 1e-15

    def test_square(self):
        rep = approximation_report(lambda x: x**2, LegendreExpansion([1 / 3, 0, 2 / 3]))
        assert rep.delta_sup <= 1e-12

    def test_indicator_gibbs_and_l2_decrease(self):
        f = indicator_above(0.98)
        reps = [approximation_report(f, legendre_coefficients(f, L)) for L in (60, 120, 180)]
        # sup error near the jump stays O(1) (Gibbs), the L2 error shrinks
        assert all(r.delta_sup > 0.3 for r in reps)
        assert reps[0].delta_l2 > reps[1].delta_l2 > reps[2].delta_l2

    def test_l2_monotone_in_order(self):
        f = indicator_above(0.5)
        prev = None
        for L in range(10, 61, 2):
            rep = approximation_report(f, legendre_coefficients(f, L))
            if prev is not None:
                assert rep.delta_l2 <= prev + 1e-12
            prev = rep.delta_l2

    def test_l2_matches_parseval(self):
        # independent route: 0.5 * (int f^2 - sum a_r^2 * 2/(2r+1))
        c, L = 0.5, 80
        e = legendre_coefficients(indicator_above(c), L)
        r = np.arange(L + 1)
        parseval = 0.5 * ((1 - c) - np.sum(e.coeffs**2 * 2.0 / (2 * r + 1)))
        rep = approximation_report(indicator_above(c), e)
        assert rep.delta_l2 == pytest.approx(parseval, abs=1e-10)


class TestOddSymmetry:
    def test_even_coefficients_vanish(self):
        f = odd_extension(indicator_above(0.6))
        e = legendre_coefficients(f, 41)
        assert np.abs(e.coeffs[::2]).max() <= 1e-10
