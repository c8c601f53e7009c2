import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bincoupling import DomainError, RangeError
from bincoupling.normal_tail import (
    X_MAX,
    X_MIN,
    inverse_psi,
    psi,
    rho,
)
from reference import (
    inv_tail_asymptotic,
    inverse_psi_newton,
    phi,
    upper_tail,
)

# frozen 50-digit quadrature oracle values (tools/gen_normal_tail_fixture.py)
PHI_1 = 0.24197072451914337
TAIL_1 = 0.15865525393145705
PSI_10 = 53.23128515051247
RHO_10 = 10.098093233962512


class TestPhi:
    def test_at_zero(self):
        assert phi(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi),
                                         rel=1e-15)

    def test_at_one(self):
        assert phi(1.0) == pytest.approx(PHI_1, rel=1e-14)

    def test_symmetry(self):
        for x in (0.3, 1.7, 5.0, 11.0):
            assert phi(x) == phi(-x)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(DomainError):
            phi(bad)


class TestUpperTail:
    def test_median(self):
        assert upper_tail(0.0) == 0.5

    def test_at_one(self):
        assert upper_tail(1.0) == pytest.approx(TAIL_1, rel=1e-14)

    def test_complement(self):
        for x in (0.1, 0.9, 2.4, 6.0):
            assert upper_tail(x) + upper_tail(-x) == pytest.approx(
                1.0, abs=1e-15)

    def test_against_quadrature_table(self, tail_fixture):
        for x, tail, _ in tail_fixture:
            if abs(x) > 40 or tail < 1e-300:
                continue
            # 0.5 erfc(x/sqrt 2): rounding its argument costs about x^2
            # ulp of relative error, a few more come from erfc itself
            rel = 4 * 2.0 ** -53 * max(1.0, x * x)
            assert upper_tail(x) == pytest.approx(float(tail), rel=rel,
                                                  abs=0.0)

    def test_graceful_underflow(self):
        assert upper_tail(60.0) == 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            upper_tail(math.nan)


class TestPsi:
    def test_at_zero(self):
        assert psi(0.0) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_deep_tail_value(self):
        assert psi(10.0) == pytest.approx(PSI_10, rel=1e-13)

    def test_against_quadrature_table(self, tail_fixture):
        for x, _, psi_ref in tail_fixture:
            assert psi(x) == pytest.approx(float(psi_ref), rel=1e-12,
                                          abs=0.0)

    def test_strictly_increasing(self):
        xs = [-6 + 0.05 * i for i in range(241)]
        vals = [psi(x) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_envelope(self):
        with pytest.raises(RangeError):
            psi(200.5)
        psi(200.0)  # boundary allowed

    def test_left_edge_is_a_normal_float(self):
        # psi and rho underflow to 0.0 a little further left, near x = -38.5
        assert psi(X_MIN) >= sys.float_info.min
        assert rho(X_MIN) >= sys.float_info.min
        with pytest.raises(RangeError, match="X_MIN"):
            psi(-37.6)
        with pytest.raises(RangeError, match="X_MAX"):
            rho(200.1)


class TestRhoAndRemainder:
    def test_at_zero(self):
        ref = 2.0 / math.sqrt(2 * math.pi)
        assert rho(0.0) == pytest.approx(ref, rel=1e-14)
        assert rho(0.0) - 0.0 == pytest.approx(ref, rel=1e-14)

    def test_far_left_vanishes(self):
        assert 0.0 < rho(-20.0) < 1e-80

    def test_deep_tail_value(self):
        assert rho(10.0) == pytest.approx(RHO_10, rel=1e-13)
        # r(x) < x/(x^2 - 1) for x > 1
        assert 0.0 < rho(10.0) - 10.0 < 10.0 / 99.0

    def test_remainder_bound_at_two(self):
        assert 0.0 < rho(2.0) - 2.0 < 2.0 / 3.0

    def test_remainder_decreasing_instance(self):
        assert rho(1.0) - 1.0 > rho(2.0) - 2.0

    def test_monotone_on_grid(self):
        xs = [-8 + 0.001 * i for i in range(16001)]
        prev_rho, prev_r = -math.inf, math.inf
        for x in xs:
            rh = rho(x)
            rr = rh - x
            assert rh > prev_rho
            assert rr < prev_r
            assert rh > 0.0 and rr > 0.0
            prev_rho, prev_r = rh, rr

    def test_envelope(self):
        with pytest.raises(RangeError):
            rho(-201.0)


class TestTailQuantities:
    def test_consistency(self):
        # phi, upper_tail, psi, rho and r agree with one another at one x
        for x in (-3.0, 0.0, 1.5, 8.0, 20.0):
            rh, tail = rho(x), upper_tail(x)
            assert rh > 0.0 and rh - x > 0.0
            if tail > 1e-300:
                assert rh == pytest.approx(phi(x) / tail, rel=1e-12)
                assert psi(x) == pytest.approx(-math.log(tail), rel=1e-12)


def _mp_psi_rho(x: float):
    """40-digit psi and rho; left of 0 the tail 1 - P{Z > -x} is logged
    through log1p."""
    with mp.workdps(40):
        X = mp.mpf(x)
        tail = mp.erfc(X / mp.sqrt(2)) / 2
        if x < 0:
            p = -mp.log1p(-mp.erfc(-X / mp.sqrt(2)) / 2)
        else:
            p = -mp.log(tail)
        return p, mp.npdf(X) / tail


class TestAgainstMpmath:
    # a dense grid over [-8, 200], both sides of the seam at 10 between the
    # erfc route and the continued fraction, around 5 and 30 inside the two
    # routes, and x <= -26 at points where x^2 is exact: elsewhere out there
    # the rounding of x^2 in exp(-x^2/2) alone costs up to x^2/2 ulp, the
    # left tail's own condition number
    XS = np.unique(np.concatenate([
        np.linspace(-8.0, 200.0, 2081),
        *(s + np.linspace(-0.01, 0.01, 21) for s in (5.0, 10.0, 30.0)),
        np.nextafter([10.0, 30.0], np.inf),
        [-37.0, -32.5, -30.0, -26.0],
    ]))

    # psi past the seam, x^2/2 + log sqrt(2 pi) + log rho from the fraction,
    # is within 2.7e-16 relative on this grid; -log of erfc(x/sqrt 2)/2
    # would reach 3.85e-16 on (10, 30]
    PSI_FAR_REL = 3.5e-16
    # the module docstring's bound; on this grid rho reaches 3.28e-15 on
    # [0, 10] and psi 2.45e-15 on [-8, 0), where both come from the right
    # side at -x
    REL = 4e-15

    def test_relative_error(self):
        for x in self.XS.tolist():
            p, r = _mp_psi_rho(x)
            bound = self.PSI_FAR_REL if x > 10.0 else self.REL
            assert abs(psi(x) - p) <= bound * p, x
            assert abs(rho(x) - r) <= self.REL * r, x


def _mills_cf_80(x: np.ndarray) -> np.ndarray:
    """rho past the seam from the Mills-ratio continued fraction cut after
    80 terms, far past the depth at which it stops changing."""
    t = x
    for k in range(80, 0, -1):
        t = x + k / t
    return t


def test_values_past_the_seam_are_the_converged_fraction():
    # every rho past the seam is the converged double of the continued
    # fraction at its x, equal to an 80-term cut: over [10, 200], densely
    # over (10, 10.1], and at two points a depth once chosen by a batch's
    # smallest x missed alone
    xs = np.linspace(10.0, 200.0, 40001)[1:]
    dense = np.linspace(10.0, 10.1, 200001)[1:]
    named = np.array([11.848557500000002, 21.695212500000004])
    for grid in (xs, dense, named):
        assert [rho(x) for x in grid.tolist()] == _mills_cf_80(grid).tolist()


def solve(L: float) -> float:
    """psi^-1 at one L: the package's solve for L >= log 2, where its roots
    x >= 0 lie, and the scalar Newton oracle for the negative roots below,
    which the package never solves (build_table mirrors them)."""
    if L >= math.log(2.0):
        return inverse_psi(L)
    return inverse_psi_newton(L)


class TestInversePsi:
    def test_log2_maps_to_zero(self):
        assert abs(solve(math.log(2.0))) < 1e-12

    def test_round_trip(self):
        for x in (0.0, 1.0, 5.0, 20.0):
            assert solve(psi(x)) == pytest.approx(x, abs=1e-9)

    def test_round_trip_negative_in_log_space(self):
        # below x ~ -2 the map is nearly flat (psi' = rho is tiny), so
        # abscissa accuracy degrades; the contract is on psi round trips
        for x in (-5.0, -3.0):
            L = psi(x)
            assert psi(solve(L)) == pytest.approx(L, rel=1e-10, abs=0.0)
            assert solve(L) == pytest.approx(x, abs=1e-6)

    def test_oracle_value(self):
        assert solve(PSI_10) == pytest.approx(10.0, abs=1e-9)

    def test_round_trip_wide(self):
        for x in (-2 + 0.5 * i for i in range(65)):  # [-2, 30]
            assert solve(psi(x)) == pytest.approx(x, abs=1e-9)

    def test_domain_errors(self):
        for L in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                inverse_psi(L)
        with pytest.raises(RangeError):
            inverse_psi(psi(200.0) * 1.01)
        # the envelope's edge: psi(X_MAX) solves to X_MAX within the
        # contract, and the next float above it is past the edge
        edge = psi(X_MAX)
        x = inverse_psi(edge)
        assert x == pytest.approx(X_MAX, rel=1e-15, abs=0.0)
        assert abs(psi(x) - edge) <= 1e-10 * edge
        for L in (math.nextafter(edge, math.inf), edge * (1.0 + 1e-11)):
            with pytest.raises(RangeError, match=repr(L)):
                inverse_psi(L)

    def test_tiny_L_stays_in_the_envelope(self):
        # the oracle's bracket for a negative root is capped at X_MIN, as
        # the other one at X_MAX
        for L in (psi(X_MIN), 1e-300, 5e-324):
            assert X_MIN <= inverse_psi_newton(L) < 0.0

    @pytest.mark.parametrize("L", [1e-13, 1e-20, 1e-100])
    def test_oracle_finds_the_deep_negative_root(self, L):
        # roots -7.349, -9.262 and -21.273, far left of where psi first
        # comes within an absolute 1e-12 of L (x ~ -7.06)
        mirrored = -math.log(-math.expm1(-L))
        want = -inverse_psi(mirrored)
        x = inverse_psi_newton(L)
        assert x == pytest.approx(want, abs=1e-9)
        # abs=0: pytest.approx keeps its default abs of 1e-12 otherwise
        assert psi(x) == pytest.approx(L, rel=1e-10, abs=0.0)

    def test_negative_root_is_the_mirrored_solve(self):
        # the reflection build_table's lower half rests on: psi(x) = L < log 2
        # has -x solving psi(-x) = -log(-expm1(-L)), a root the package's
        # solve finds
        for L in (0.6, 0.1, 1e-6, 1e-100):
            mirrored = -math.log(-math.expm1(-L))
            x = -inverse_psi(mirrored)
            assert x < 0.0
            assert psi(x) == pytest.approx(L, rel=1e-10, abs=0.0)


class TestInvTailAsymptotic:
    def test_e_minus_50(self):
        # y = 10
        assert inv_tail_asymptotic(math.exp(-50.0)) == pytest.approx(
            10.0 - math.log(10.0) / 10.0, rel=1e-15)

    def test_e_minus_200(self):
        assert inv_tail_asymptotic(math.exp(-200.0)) == pytest.approx(
            20.0 - math.log(20.0) / 20.0, rel=1e-15)

    def test_close_to_true_inverse(self):
        p = math.exp(-50.0)
        assert abs(inv_tail_asymptotic(p) - solve(50.0)) <= 2.0 / 10.0

    @pytest.mark.parametrize("bad", [0.0, 0.1, 0.5, -0.01])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            inv_tail_asymptotic(bad)


@given(st.floats(min_value=-8.0, max_value=8.0),
       st.floats(min_value=1e-6, max_value=5.0))
@settings(max_examples=300)
def test_psi_increment_bracket(x, delta):
    # x d + d^2/2 <= psi(x+d) - psi(x) <= rho(x) d + d^2/2
    inc = psi(x + delta) - psi(x)
    assert inc >= x * delta + delta * delta / 2 - 1e-10
    assert inc <= rho(x) * delta + delta * delta / 2 + 1e-10


# L < log 2 has a negative root, solved by the oracle, and is drawn
# log-uniform from psi(X_MIN) so that the deep left tail is drawn too;
# L >= log 2 by the package's solve
@given(st.one_of(st.floats(min_value=math.log(psi(X_MIN)),
                           max_value=math.log(math.log(2.0)),
                           exclude_max=True).map(
                               lambda v: max(math.exp(v), psi(X_MIN))),
                 st.floats(min_value=math.log(2.0), max_value=psi(X_MAX))))
@settings(max_examples=200)
def test_inverse_psi_is_inverse(L):
    # the documented accuracy: |psi(x) - L| <= 1e-10 L for a negative root,
    # 1e-10 max(1, L) otherwise
    if L < math.log(2.0):
        assert psi(solve(L)) == pytest.approx(L, rel=1e-10, abs=0.0)
    else:
        assert psi(solve(L)) == pytest.approx(L, rel=1e-10, abs=1e-10)
