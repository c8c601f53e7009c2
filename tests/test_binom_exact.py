import math
import tracemalloc
from itertools import accumulate, product

import mpmath as mp
import pytest

from bincoupling import DomainError, log_tail_exact_all, tail_numerator
from bincoupling.approx import lambda_table
from bincoupling.binom_exact import _log_ratios
from bincoupling.normal_tail import LOG_SQRT_2PI
from conftest import lambda_mp, log_tail_beta_integral
from reference import _log_tail, lambda_n, log_tail_exact


def enumerate_tail(n: int, k: int) -> int:
    """Brute-force oracle: count coin-flip outcomes with >= k heads."""
    return sum(1 for flips in product((0, 1), repeat=n) if sum(flips) >= k)


class TestLogTailExact:
    def test_single_outcome(self):
        assert tail_numerator(2, 2) == 1
        assert math.exp(log_tail_exact(2, 2)) == pytest.approx(0.25,
                                                               rel=1e-14)

    def test_full_space(self):
        for n in (1, 7, 100):
            assert tail_numerator(n, 0) == 2 ** n
            assert log_tail_exact(n, 0) == 0.0

    def test_against_enumeration(self):
        for n in (1, 2, 4, 7, 10):
            for k in range(n + 1):
                assert tail_numerator(n, k) == enumerate_tail(n, k)

    def test_example_n4_k3(self):
        assert tail_numerator(4, 3) == 5
        assert math.exp(log_tail_exact(4, 3)) == pytest.approx(5 / 16,
                                                               rel=1e-14)

    def test_batch_matches_single(self):
        # the array equals the per-k reference bit for bit, for both
        # parities, in the upper half and in the mirrored lower half
        for n in range(1, 301):
            batch = log_tail_exact_all(n)
            assert type(batch) is list and len(batch) == n + 1
            for k in range(n + 1):
                assert batch[k] == log_tail_exact(n, k), (n, k)

    @pytest.mark.parametrize("n", [511, 512, 1000, 1023, 2047, 3001, 4096])
    def test_batch_matches_single_for_large_n(self, n):
        # the per-k reference route on the exact numerators, summed
        # cumulatively (tail_numerator(n, k) for every k would cost O(n^3)
        # bits); both mantissa routes, e <= 52 near k = n and e > 52
        # below, are taken
        nums = list(accumulate(math.comb(n, j) for j in range(n, -1, -1)))
        nums.reverse()
        for k in (0, 1, n // 2, n // 2 + 1, n - 1, n):
            assert nums[k] == tail_numerator(n, k), k
        assert nums[n - 2].bit_length() <= 53 < nums[n // 2].bit_length()
        batch = log_tail_exact_all(n)
        assert len(batch) == n + 1
        for k in range(n + 1):
            assert batch[k] == _log_tail(nums.__getitem__, n, k), k

    def test_batch_holds_a_bounded_number_of_numerators(self):
        # the numerators are streamed, one held at a time; holding all
        # n + 1 of them at once takes about 8 MB at n = 8192, two blocks of
        # 128 read about 0.47 MB, and a lower half built through two
        # temporary lists of n/2 floats 0.33 MB.  The returned list of
        # n + 1 floats alone is about 0.26 MB
        tracemalloc.start()
        try:
            log_tail_exact_all(8192)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.32e6

    def test_complement_identity_exact(self):
        for n in (5, 28, 129):
            num = [tail_numerator(n, k) for k in range(n + 1)]
            for k in range(1, n + 1):
                lower = 2 ** n - num[k]  # sum_{j<k} C(n,j)
                assert num[k] + lower == 2 ** n
                # symmetry: sum_{j>=k} = sum_{j<=n-k}
                assert num[k] == 2 ** n - num[n - k + 1]

    def test_monotone_decreasing(self):
        # numerators decrease strictly (exact); log tails can tie in double
        # precision where neighbouring tails differ by less than 1 ulp
        n = 200
        num = [tail_numerator(n, k) for k in range(n + 1)]
        batch = log_tail_exact_all(n)
        for k in range(n):
            assert num[k + 1] < num[k]
            assert batch[k + 1] <= batch[k]

    def test_domain(self):
        for f in (log_tail_exact, tail_numerator):
            with pytest.raises(DomainError):
                f(10, 11)
            with pytest.raises(DomainError):
                f(10, -1)
            with pytest.raises(DomainError):
                f(0, 0)

    def test_log_accuracy_against_mpmath(self):
        num = tail_numerator(1000, 700)
        with mp.workdps(40):
            ref = float(mp.log(mp.mpf(num)) - 1000 * mp.log(2))
        assert log_tail_exact(1000, 700) == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize(
        "n", [1, 2, 3, 4, 28, 29, 100, 101, 199, 257, 1000, 2048, 4096])
    def test_lower_half_against_mpmath(self, n):
        # a lower tail is 1 - u with u the upper tail at n - k + 1, so its
        # 50-digit log is log1p(-u); the log of a ratio near 1 would need
        # far more digits.  The error of log u is a few ulp of |log u| and
        # exp carries it into u, relatively; 2^-1074 allows for subnormals
        nums = list(accumulate(math.comb(n, j) for j in range(n, -1, -1)))
        nums.reverse()
        batch = log_tail_exact_all(n)
        with mp.workdps(50):
            for k in range(1, n // 2 + 1):
                u = mp.mpf(nums[n - k + 1]) / mp.mpf(2) ** n
                ref = mp.log1p(-u)
                rel = 8 * 2.0 ** -53 * max(1.0, float(-mp.log(u)))
                err = abs(batch[k] - ref)
                assert err <= rel * abs(ref) + 2.0 ** -1074, (k, batch[k])

    @pytest.mark.parametrize("n", [29, 64, 100, 256, 1000, 1001, 1024, 2048,
                                   3001, 4095, 4096])
    def test_log_near_center_against_mpmath(self, n):
        # log tails near 1/2 carry no cancellation error of size ulp(0.69 n)
        batch = log_tail_exact_all(n)
        with mp.workdps(50):
            for k in range(max(0, n // 2 - 40), min(n, n // 2 + 41) + 1):
                num = tail_numerator(n, k)
                ref = mp.log(mp.mpf(num) / mp.mpf(2) ** n)
                err = abs(batch[k] - ref)
                assert err <= 5e-16 * max(1.0, abs(ref)), k
        if n % 2:
            # the odd-n center tail is exactly 1/2
            assert batch[(n + 1) // 2] == -math.log(2.0)


class TestLogBigInt:
    # _log_ratios([m], 0) yields log m for a positive integer of any size
    def test_small(self):
        assert next(_log_ratios([1], 0)) == 0.0
        assert next(_log_ratios([2], 0)) == pytest.approx(math.log(2.0),
                                                          rel=1e-15)

    def test_huge(self):
        m = 3 ** 5000
        with mp.workdps(40):
            ref = float(5000 * mp.log(3))
        assert next(_log_ratios([m], 0)) == pytest.approx(ref, rel=1e-15)


class TestBetaIntegral:
    def test_example_n4_k3(self):
        assert math.exp(log_tail_beta_integral(4, 3)) == pytest.approx(
            0.3125, rel=1e-8)

    def test_example_n2_k2(self):
        assert math.exp(log_tail_beta_integral(2, 2)) == pytest.approx(
            0.25, rel=1e-8)

    def test_matches_exact_n28_k20(self):
        exact = log_tail_exact(28, 20)
        assert math.exp(log_tail_beta_integral(28, 20)) == pytest.approx(
            math.exp(exact), rel=1e-8)

    def test_log_agreement_all_k_n28(self):
        batch = log_tail_exact_all(28)
        for k in range(1, 29):
            lb = log_tail_beta_integral(28, k)
            assert abs(lb - batch[k]) <= 1e-8 * max(1.0, abs(batch[k]))

    def test_domain(self):
        with pytest.raises(DomainError):
            log_tail_beta_integral(10, 0)
        with pytest.raises(DomainError):
            log_tail_beta_integral(5000, 10)


class TestLambdaN:
    def test_lambda_1(self):
        # log 1! = 0, so lambda_1 = 1 - log(2 pi)/2
        ref = 1.0 - 0.5 * math.log(2 * math.pi)
        assert lambda_n(1) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 1000, 4095, 4096])
    def test_bracket_exact_route(self, n):
        lam = lambda_n(n)
        assert 1.0 / (12 * n + 1) <= lam <= 1.0 / (12 * n)

    def test_bracket_instance_4096(self):
        lam = lambda_n(4096)
        assert 1.0 / 49153 <= lam <= 1.0 / 49152

    def test_series_route_continuity(self):
        # exact route at 4096 and series route at 4097 must line up
        gap = lambda_n(4096) - lambda_n(4097)
        assert 0.0 < gap < 1e-8

    @pytest.mark.parametrize("n", [5000, 10 ** 6])
    def test_bracket_series_route(self, n):
        lam = lambda_n(n)
        assert 1.0 / (12 * n + 1) <= lam <= 1.0 / (12 * n)

    def test_against_50_digit_reference(self):
        # each route within its own error bound, against log j! minus the
        # Stirling lead in 50-digit arithmetic, with Robbins' bracket held
        # strictly.  From j = 9 on, the series truncated after B_12 falls
        # short of lambda_j by less than its first omitted term,
        # |B_14|/(14 13 j^13) with B_14 = 7/6 (DLMF 5.11(iii): the
        # remainder has that term's sign and is smaller), give or take the
        # rounding of its sum: measured, at most 1.65 ulp(lambda_j) below
        # the omitted term (j = 2765) and 0.68 ulp above lambda_j
        # (j = 854).  Below 9, lgamma(j + 1) minus the lead cancels two
        # numbers of size at most M = max(|lgamma(j + 1)|, |lead|):
        # measured at most 5.21 ulp(M), at j = 1.  Either fails lgamma at
        # j = 9 and 10 (3.28e-15 and 3.40e-15 off) and lambda_10 + 1e-15
        with mp.workdps(50):
            for j, lam in enumerate(lambda_table(4096)[1:], 1):
                err = float(mp.mpf(lam) - lambda_mp(j))
                if j >= 9:
                    omitted = 7 / (6 * 14 * 13 * j ** 13)
                    assert -omitted - 2 * math.ulp(lam) <= err \
                        <= 2 * math.ulp(lam), (j, err)
                else:
                    lead = (j + 0.5) * math.log(j) - j + LOG_SQRT_2PI
                    assert abs(err) <= 6 * math.ulp(
                        max(abs(math.lgamma(j + 1)), abs(lead))), (j, err)
                assert 1.0 / (12 * j + 1) < lam < 1.0 / (12 * j), j

    def test_route_seam(self):
        # n = 8 is the last lgamma value and n = 9 the first series value;
        # since log 9! - log 8! = log 9, the leads leave an exact gap of
        # lambda_8 - lambda_9 = 8.5 log(9/8) - 1
        lam8, lam9 = lambda_n(8), lambda_n(9)
        assert lam9 < lam8
        assert lam8 - lam9 == pytest.approx(8.5 * math.log(9 / 8) - 1.0,
                                            abs=1e-13)

    def test_table_matches_scalar(self):
        # an entry of the table does not depend on the table's length: the
        # sweep's lambda_table(N) gives each lambda_j that lambda_n reads
        table = lambda_table(4096)
        assert len(table) == 4097
        assert math.isnan(table[0])
        for m in [*range(1, 65), *range(65, 4096, 61), 4095]:
            assert lambda_table(m)[1:] == table[1:m + 1], m
        for j in range(1, 4097):
            assert table[j] == lambda_n(j), j

    def test_domain(self):
        with pytest.raises(DomainError):
            lambda_n(0)
