import math

import mpmath as mp
import numpy as np
import pytest

from bincoupling import (
    DomainError,
    build_table,
    log_tail_exact_all,
    tail_numerator,
)
from bincoupling.approx import _GAMMA_COEFFS, _gamma, expansion_terms
from bincoupling.cutpoints import N_MAX_TABLE
from bincoupling.normal_tail import psi
from bincoupling.verify import X_SPLIT
from conftest import gamma_mp
from reference import (
    SmallEpsilonRegime,
    delta_sandwich,
    epsilon_of,
    eq4_extreme,
    eq5_bounds,
    eta_kappa,
    gamma_eps,
    h_aux,
    h_third,
    lambda_n,
    laplace_pieces,
    log_tail_exact,
    lower_bound_11,
    s_eps,
    theorem1_breakdown,
    theorem2_w,
    tusnady_bounds,
)


# the twelve n of the sweep-dense workload
DENSE_N = (28, 29, 64, 100, 128, 256, 512, 1000, 1024, 2048, 3001, 4096)


def gamma_oracle(e: float) -> float:
    """Closed form in 50-digit arithmetic (no cancellation there)."""
    if e == 0:
        return 1.0 / 12.0
    with mp.workdps(50):
        return float(gamma_mp(mp.mpf(e)))


class TestGamma:
    def test_at_zero(self):
        assert gamma_eps(0.0) == 1.0 / 12.0

    def test_at_one(self):
        assert gamma_eps(1.0) == pytest.approx(math.log(2.0) - 0.5,
                                               rel=1e-12)

    def test_seam_agreement(self):
        # both branches of the reference and of the package against the
        # high-precision closed form, over 2,500 points of [0.001, 0.9995]
        # and on both sides of the seam at 3/4.  Measured there: the
        # series within 6.8e-16 relative below the seam (the package's
        # Horner sum 1.7e-16) and the closed form within 3.8e-15 above it.
        # The closed form taken from e = 1/2 up would be 1.25e-14 off at
        # e = 0.536, and from 0.05 up 4.7e-12 off at 0.050001.
        es = np.concatenate([np.linspace(0.001, 0.9995, 2500),
                             [0.005, 0.049999, 0.050001, 0.5, 0.74999, 0.75,
                              0.75001, 0.99]])
        for e in es.tolist():
            want = gamma_oracle(e)
            for have in (gamma_eps(e), _gamma(e)):
                assert abs(have - want) <= 4e-15 * want, e

    def test_array_form_matches_scalar(self):
        # two algorithms below the seam: the package's Horner sum over all
        # 60 coefficients and the reference's forward sum until a
        # term falls below 1e-17 (9.4e-16 relative apart at most over this
        # grid).  Above it both take the closed form by math.log1p.
        es = np.concatenate([np.linspace(0.0, 0.75, 30001)[:-1],
                             [0.75, 0.75001, 0.8, 0.99]])
        got = np.array([_gamma(e) for e in es.tolist()])
        want = np.array([gamma_eps(e) for e in es.tolist()])
        bound = np.where(es < 0.75, 1e-15, 1e-14) * want
        assert (np.abs(got - want) <= bound).all()

    def test_truncated_sum_equals_the_60_term_sum(self):
        # below the seam the package's sum is the 60-term Horner sum to the
        # bit at every e = (2K - N)/N of the n < 1024 and of the sweep-dense
        # n
        ns = [*range(2, 1024), *DENSE_N]
        es = np.unique([(2 * K - (n - 1)) / (n - 1) for n in ns
                        for K in range(n // 2, n)])
        es = es[es < 0.75]
        full = np.polyval(_GAMMA_COEFFS[::-1], es * es)
        assert [_gamma(e) for e in es.tolist()] == full.tolist()

    def test_increasing(self):
        es = [i / 200 for i in range(201)]
        vals = [gamma_eps(e) for e in es]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_eps(-0.1)
        with pytest.raises(DomainError):
            gamma_eps(1.1)


class TestSEps:
    def test_endpoints(self):
        assert s_eps(0.0) == 1.0
        assert s_eps(1.0) == pytest.approx(math.sqrt(2 * math.log(2.0)),
                                           rel=1e-14)
        assert abs(s_eps(1.0) - 1.177) < 5e-4

    def test_monotone(self):
        assert s_eps(0.3) < s_eps(0.7)


class TestLaplacePieces:
    def test_entropy_identity_asserted(self):
        # the function re-derives H(1/2) - H(K/N) independently; it raises
        # if the two routes disagree beyond 1e-12
        for n, k in ((28, 15), (29, 16), (100, 99), (512, 300)):
            h_diff, delta, lam = laplace_pieces(n, k)
            e = epsilon_of(n, k)
            assert h_diff == pytest.approx(
                -0.5 * e * e - e ** 4 * gamma_eps(e), rel=1e-12)

    def test_lambda_composition(self):
        _, _, lam = laplace_pieces(29, 16)
        ref = lambda_n(28) - lambda_n(15) - lambda_n(13)
        assert lam == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_delta_rearrangement(self):
        for n, k in ((28, 20), (100, 70)):
            e = epsilon_of(n, k)
            N = n - 1
            _, delta, lam = laplace_pieces(n, k)
            lhs = (delta + 0.5 * math.log1p(-e * e)
                   + N * e ** 4 * gamma_eps(e) - lam)
            assert lhs == pytest.approx(math.log1p(1.0 / N), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            laplace_pieces(28, 14)
        with pytest.raises(DomainError):
            laplace_pieces(28, 28)


class TestHAux:
    def test_zero_at_origin(self):
        for e in (0.0, 0.3, 1.0):
            assert h_aux(0.0, e) == 0.0

    def test_third_derivative_at_zero(self):
        for e in (0.1, 0.5, 0.9):
            assert h_third(0.0, e) == pytest.approx(-2.0 * e, rel=1e-14)

    def test_third_derivative_decreasing(self):
        e = 0.4
        vals = [h_third(s / 100, e) for s in range(95)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_quadratic_upper_bound(self):
        # h(s) <= e^2/2 - (s + e)^2/2 on (0, 1)
        for e in (0.05, 0.4, 0.9):
            for i in range(1, 100):
                s = i / 100
                assert h_aux(s, e) <= 0.5 * e * e - 0.5 * (s + e) ** 2 + 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            h_aux(1.0, 0.5)
        with pytest.raises(DomainError):
            h_third(1.0, 0.5)


def an_terms(n: int, k: int, log_tail: float) -> tuple[float, float]:
    """A_n from the exact tail, log tail + psi(e sqrt(N)), and its main term
    -N e^4 gamma(e) - log(1-e^2)/2 - lam_{n-k}, by theorem1_breakdown's
    operations."""
    e, N = epsilon_of(n, k), n - 1
    an_exact = log_tail + psi(e * math.sqrt(N))
    an_main = (-N * e ** 4 * gamma_eps(e) - 0.5 * math.log1p(-e * e)
               - lambda_n(n - k))
    return an_exact, an_main


class TestTheorem1:
    def test_residual_small_n28(self):
        lt = log_tail_exact(28, 15)
        r_k = theorem1_breakdown(28, 15, lt)
        N = 27
        assert math.isfinite(r_k)
        assert abs(N * r_k) <= 10 * math.log(N)
        an_exact, an_main = an_terms(28, 15, lt)
        assert r_k == an_exact - an_main

    def test_extreme_epsilon_no_overflow(self):
        r_k = theorem1_breakdown(100, 99, log_tail_exact(100, 99))
        assert epsilon_of(100, 99) == pytest.approx(97 / 99, rel=1e-15)
        assert math.isfinite(r_k)

    def test_k_equals_n_rejected(self):
        with pytest.raises(DomainError):
            theorem1_breakdown(28, 28, log_tail_exact(28, 28))

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            theorem1_breakdown(27, 15, log_tail_exact(27, 15))


class TestTheorem2:
    def test_small_epsilon_regime(self):
        # eps = 1/14 small: w is eps sqrt(N) to O(1/sqrt(N))
        w = theorem2_w(29, 16)
        x = epsilon_of(29, 16) * math.sqrt(28)
        assert w == pytest.approx(x, abs=1.0 / math.sqrt(28))

    def test_extreme_epsilon_dominated_by_main_term(self):
        n, k = 2048, 2047
        e = epsilon_of(n, k)
        w = theorem2_w(n, k)
        main = e * math.sqrt(n - 1) * s_eps(e)
        assert s_eps(e) == pytest.approx(s_eps(1.0), abs=5e-3)
        assert abs(w - main) < 0.01 * main

    def test_zero_epsilon_rejected(self):
        with pytest.raises(DomainError):
            theorem2_w(29, 15)  # eps = 0 for odd n at k = (n+1)/2

    @pytest.mark.parametrize("n", [28, 64, 256, 1024, 4096])
    def test_first_cutpoint_above_center_is_the_corner_term(self, n):
        # why criterion 08 stays red: at k = n/2 + 1 with n even, e = 1/N
        # and x = 1/sqrt(N), and N theta_k is -N lambda_{n-k} / x to within
        # 0.2/sqrt(N) while it grows like -sqrt(N)/6, so no constant C'
        # gives -C'(x + 1) <= N theta_k at every n
        N, k = n - 1, n // 2 + 1
        x = epsilon_of(n, k) * math.sqrt(N)
        assert epsilon_of(n, k) == 1 / N
        assert x == pytest.approx(1 / math.sqrt(N), rel=1e-15)
        n_theta = N * (build_table(n).z[k - 1] - theorem2_w(n, k))
        assert abs(n_theta + N * lambda_n(n - k) / x) <= 0.2 / math.sqrt(N)
        assert n_theta <= -0.15 * math.sqrt(N)

    def test_tail_and_cutpoint_views_at_one_k(self):
        # the tail residual and the cutpoint residual at one table cutpoint,
        # per point and as the sweep's expansion gives them
        n, k = 64, 50
        z = build_table(n).z[k - 1]
        lt = log_tail_exact(n, k)
        an_exact, an_main = an_terms(n, k, lt)
        r_k = theorem1_breakdown(n, k, lt)
        assert r_k == an_exact - an_main
        theta = z - theorem2_w(n, k)
        ex = expansion_terms(n, [k], [lt], [z], [psi(z)])
        assert ex.r_k[0] == pytest.approx(r_k, rel=1e-12, abs=1e-15)
        assert ex.theta[0] == pytest.approx(theta, rel=1e-12, abs=1e-15)


class TestLowerBound11:
    @pytest.mark.parametrize("n", [28, 64, 129])
    def test_brackets_exact_tail(self, n):
        tails = log_tail_exact_all(n)
        for k in range(n // 2 + 1, n):
            lo, up = lower_bound_11(n, k)
            assert lo - 1e-9 <= tails[k] <= up + 1e-9

    def test_eta_short_for_n28(self):
        for k in range(15, 28):
            ell, eta, kappa_sq = eta_kappa(28, k)
            assert eta <= 0.5
            # eta solves eta^2/2 + eta eps = log(N)/N
            lhs = 0.5 * eta ** 2 + eta * epsilon_of(28, k)
            assert lhs == pytest.approx(ell, rel=1e-12)
            assert ell == math.log(27) / 27
            assert kappa_sq > 1.0

    def test_eta_bound_is_under_half_from_n28(self):
        # eta = 2l/(e + sqrt(e^2 + 2l)) <= sqrt(2l), l = log(N)/N: the bound
        # the sweep's expansion rests on, and why it starts at n = 28
        def bound(n):
            return math.sqrt(2.0 * math.log(n - 1) / (n - 1))

        assert bound(27) > 0.5
        assert all(bound(n) <= 0.5 for n in range(28, N_MAX_TABLE + 1))

    def test_domain(self):
        with pytest.raises(DomainError):
            lower_bound_11(28, 28)


class TestDeltaSandwich:
    def test_brackets_cutpoint(self):
        table = build_table(512)
        z = table.z[399]
        x = epsilon_of(512, 400) * math.sqrt(511)
        d1, d2, beta = delta_sandwich(512, 400, z)
        assert beta > 0.0
        assert d1 >= d2  # rho(x) >= x
        assert x + d2 <= z + 1e-9
        assert z <= x + d1 + 1e-9

    def test_gap_bound(self):
        table = build_table(512)
        for k in (380, 450, 500):
            z = table.z[k - 1]
            x = epsilon_of(512, k) * math.sqrt(511)
            if x < 2.0:
                continue
            d1, d2, beta = delta_sandwich(512, k, z)
            assert d1 - d2 <= 4.0 * beta / x ** 3 + 1e-12

    def test_small_epsilon_signalled(self):
        table = build_table(28)
        with pytest.raises(SmallEpsilonRegime):
            delta_sandwich(28, 15, table.z[14])


def test_expansion_identities_hold_at_every_k():
    # the identities the scalar references assert and the sweep relies on:
    # the entropy identity, eta and kappa at every n/2 < k < n, and the two
    # quadratic identities with beta > 0 where x >= X_SPLIT in integers
    for n in [*range(28, 65), 512, 1024, 2048, 4096]:
        z = build_table(n).z
        for k in range(n // 2 + 1, n):
            lower_bound_11(n, k)
            if (2 * k - n - 1) ** 2 >= X_SPLIT ** 2 * (n - 1):
                delta_sandwich(n, k, z[k - 1])


class TestTusnady:
    def test_n28_all_k(self):
        table = build_table(28)
        for k in range(14, 29):
            lo, up = tusnady_bounds(28, k, table.beta[k - 1])
            assert lo >= -1e-9 and up >= -1e-9

    def test_upper_bound_at_k_equals_n(self):
        # sqrt(2n(n-k)) vanishes: bound is 3n/2
        table = build_table(64)
        _, up = tusnady_bounds(64, 64, table.beta[63])
        assert up == pytest.approx(1.5 * 64 - table.beta[63], rel=1e-15)

    def test_upper_slack_grows_linearly_at_extreme(self):
        # the classical upper bound overshoots by a constant fraction of n
        for n in (512, 1024):
            table = build_table(n)
            _, up = tusnady_bounds(n, n - 1, table.beta[n - 2])
            assert up > 0.072 * n

    def test_domain(self):
        with pytest.raises(DomainError):
            tusnady_bounds(28, 13, 12.0)


class TestEq4Extreme:
    def test_uses_limiting_scale(self):
        c = s_eps(1.0)
        assert abs(c - 1.1774) < 1e-4
        val = eq4_extreme(64, 1)
        assert val == pytest.approx(
            (1 + c) / 2 * 64 - 3 * math.log(64) / (4 * c), rel=1e-14)

    def test_residual_bounded_under_doubling(self):
        resids = []
        for n in (64, 128, 256, 512, 1024, 2048):
            table = build_table(n)
            resids.append(table.beta[n - 2] - eq4_extreme(n, 1))
        assert max(resids) - min(resids) < 1.0

    def test_tail_ratio_tends_to_one(self):
        # P{X >= n-B} ~ n^B / (B! 2^n)
        for B in (1, 2, 3):
            ratios = []
            for n in (256, 2048):
                num = tail_numerator(n, n - B)
                ratios.append(num / (n ** B / math.factorial(B)))
            assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0) + 1e-12
            assert abs(ratios[-1] - 1.0) < 0.01

    def test_domain(self):
        with pytest.raises(DomainError):
            eq4_extreme(64, 4)
        with pytest.raises(DomainError):
            eq4_extreme(4, 3)


class TestEq5Bounds:
    def test_center_reduces_to_sqrt_window(self):
        n = 64
        table = build_table(n)
        k = n // 2
        d = table.beta[k - 1] - k + 0.5
        assert abs(d) < 1.0 / math.sqrt(n)
        assert eq5_bounds(n, k, table.beta[k - 1], (1.0, 0.1, 1.0, 1.0))

    def test_rejects_nonpositive_constants(self):
        with pytest.raises(DomainError):
            eq5_bounds(64, 40, 39.5, (1.0, 0.0, 1.0, 1.0))

    def test_detects_violation(self):
        # absurdly tight upper window must fail at the extreme
        table = build_table(64)
        assert not eq5_bounds(64, 63, table.beta[62],
                              (1.0, 1e-6, 1e-6, 1e-6))
