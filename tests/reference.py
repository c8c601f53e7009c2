"""Scalar reference formulas the tests hold the package against.

No command, sweep or coupling call of the package runs these; each is the
plain per-point form of a quantity whose fast path lives in the package,
or a formula of the paper that the tests check directly.  The expansion
section is the per-point form of approx.expansion_terms: Theorem 1's r_k,
Theorem 2's w_k, the eq. (11) log-tail sandwich, the two-root cutpoint
sandwich and Tusnady's bracket.
"""

import math
from functools import partial

from bincoupling.approx import lambda_table
from bincoupling.binom_exact import N_MAX_EXACT, tail_numerator
from bincoupling.errors import DomainError, RangeError
from bincoupling.normal_tail import (
    INV_SQRT_2,
    LOG_2,
    SQRT_2_OVER_PI,
    SQRT_2PI,
    X_MAX,
    X_MIN,
    psi,
    rho,
)


def _finite(x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"argument must be finite, got {x!r}")
    return x


# normal tail

def phi(x: float) -> float:
    """Standard normal density."""
    x = _finite(x)
    return math.exp(-0.5 * x * x) / SQRT_2PI


def upper_tail(x: float) -> float:
    """P{Z > x}.  Underflows gracefully to 0 for x beyond ~38; callers that
    need the deep tail work with psi instead."""
    x = _finite(x)
    return 0.5 * math.erfc(x * INV_SQRT_2)


def inverse_psi_newton(L: float) -> float:
    """Solve psi(x) = L for x, to |psi(x) - L| <= 1e-10 * max(1, L), and to
    1e-10 * L for psi(X_MIN) <= L < log 2, where the root is negative.

    Safeguarded Newton iteration x <- x - (psi(x) - L)/rho(x); psi is convex
    (its derivative rho is increasing) so Newton from a bracketed seed
    converges monotonically, with bisection as the fallback.  A negative
    root is solved on log psi, x <- x - (log psi(x) - log L) psi(x)/rho(x),
    so that the stop is relative however small L is.  Below psi(X_MIN) the
    root is past the envelope, and the iteration stops at the capped
    bracket's edge X_MIN.  It runs on the public psi and rho, with a
    bracket and a bisection fallback: the reference the package's solve,
    normal_tail.inverse_psi (plain Newton on a private kernel that returns
    psi and rho together, for roots x >= 0 only), is tested against.
    """
    L = float(L)
    if not (L > 0.0) or not math.isfinite(L):
        raise DomainError(f"L must be positive and finite, got {L!r}")
    psi_max = psi(X_MAX)
    if L > psi_max:
        raise RangeError(f"L = {L} exceeds psi({X_MAX}) = {psi_max}")

    negative = L < LOG_2
    if not negative:
        # the root lies in [0, X_MAX]; no iterate may leave the envelope
        lo, hi = 0.0, min(math.sqrt(2.0 * L) + 2.0, X_MAX)
        if L > 2.5:
            # the first-order asymptotic inverse of the tail at p = e^{-L},
            # stated in L so it works even where e^{-L} underflows
            y = math.sqrt(2.0 * L)
            x = y - math.log(y) / y
        else:
            # Newton's first step from x = 0, the root at L = log 2: psi is
            # convex, so it lands on the root or right of it
            x = (L - LOG_2) / SQRT_2_OVER_PI
    else:
        # mirrored bracket: x < 0, lower tail P{Z <= x} = 1 - e^{-L}
        p_low = -math.expm1(-L)
        lo = max(-(math.sqrt(2.0 * math.log(1.0 / p_low)) + 2.0), X_MIN)
        hi = 0.0
        x = -0.5
    x = min(max(x, lo), hi)

    # the stop is on log psi for a negative root, on psi otherwise
    tol = 1e-12 * max(1.0, L)
    for _ in range(200):
        p = psi(x)
        f = math.log(p) - math.log(L) if negative else p - L
        if f > 0.0:
            hi = min(hi, x)
        else:
            lo = max(lo, x)
        if abs(f) <= tol:
            return x
        step = f * p / rho(x) if negative else f / rho(x)
        x_new = x - step
        if not (lo <= x_new <= hi):
            x_new = 0.5 * (lo + hi)
        if x_new == x:
            break
        x = x_new
    bound = L if psi(X_MIN) <= L < LOG_2 else max(1.0, L)
    if abs(psi(x) - L) > 1e-10 * bound:
        raise RangeError(f"inverse_psi_newton failed to converge for L = {L}")
    return x


# exact Binomial tails and Stirling corrections

def _log_ratio(num: int, n: int) -> float:
    """log(num / 2^n) for an integer num > 0, as the log of num's leading
    53 bits scaled into [1, 2) plus its binary exponent minus n, times
    log 2: the per-number form of binom_exact._log_ratios."""
    e = num.bit_length() - 1
    mant = (num >> (e - 52) if e > 52 else num << (52 - e)) / 2.0 ** 52
    return math.log(mant) + (e - n) * LOG_2


def _log_tail(num, n: int, k: int) -> float:
    """log P{Bin(n,1/2) >= k} from num(j), the exact numerator of the tail
    at j, by the rule of binom_exact.log_tail_exact_all: the _log_ratio of
    num(k) for an upper tail, k > n/2, and for every lower tail 1 - u,
    k in 1..n/2, log1p(-u) from the log of its mirror u =
    P{Bin >= n - k + 1} < 1/2.  No numerator below the centre is read."""
    if 1 <= k <= n // 2:
        return math.log1p(-math.exp(_log_ratio(num(n - k + 1), n)))
    return _log_ratio(num(k), n)


def log_tail_exact(n: int, k: int) -> float:
    """log P{Bin(n,1/2) >= k}, from the exact numerators
    tail_numerator(n, j)."""
    return _log_tail(partial(tail_numerator, n), n, k)


# the package's lambda_j up to the largest n of a table, as one list
_LAMBDA_4096 = lambda_table(4096)


def lambda_n(n: int) -> float:
    """Stirling correction lambda_n, read from the package's one route:
    entry n of lambda_table, whose entries do not depend on its length."""
    if not (1 <= n <= N_MAX_EXACT):
        raise DomainError(f"n must be in [1, {N_MAX_EXACT}], got {n}")
    return _LAMBDA_4096[n] if n <= 4096 else lambda_table(n)[n]


# expansion

def epsilon_of(n: int, k: int) -> float:
    """Standardized index (2K - N)/N with K = k - 1, N = n - 1, for the
    upper half k > n/2 only (the lower half is handled by symmetry)."""
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    if not (n / 2 < k <= n):
        raise DomainError(f"k must satisfy n/2 < k <= n, got k = {k}")
    return (2 * (k - 1) - (n - 1)) / (n - 1)


def gamma_eps(epsilon: float) -> float:
    """Entropy-defect coefficient

        [(1+e) log(1+e) + (1-e) log(1-e) - e^2] / (2 e^4),

    increasing on [0, 1] from 1/12 to log 2 - 1/2.  The closed form
    cancels more as e falls (8e-12 relative at e = 0.05), so below e = 3/4
    the power series in e^2 is summed forward, term by term, until a term
    falls below 1e-17: a second algorithm to approx._gamma's Horner
    sum over the coefficients each e needs.
    """
    e = float(epsilon)
    if not (0.0 <= e <= 1.0):
        raise DomainError(f"epsilon must be in [0, 1], got {epsilon!r}")
    if e < 0.75:
        # sum_{r>=0} e^{2r} / ((2r+3)(2r+4))
        e2 = e * e
        total = 0.0
        term_pow = 1.0
        r = 0
        while True:
            term = term_pow / ((2 * r + 3) * (2 * r + 4))
            total += term
            if term < 1e-17:
                return total
            term_pow *= e2
            r += 1
    if e == 1.0:
        # (1-e) log(1-e) -> 0 (removable)
        return (2.0 * math.log(2.0) - 1.0) / 2.0
    num = ((1.0 + e) * math.log1p(e) + (1.0 - e) * math.log1p(-e) - e * e)
    return num / (2.0 * e ** 4)


def s_eps(epsilon: float) -> float:
    """Cutpoint scale factor sqrt(1 + 2 e^2 gamma(e)); 1 at 0, ~1.1774 at 1."""
    e = float(epsilon)
    return math.sqrt(1.0 + 2.0 * e * e * gamma_eps(e))


def h_third(s: float, epsilon: float) -> float:
    """Third derivative of the beta integrand's centered exponent
    h(s) = [(1+e) log(1-s) + (1-e) log(1+s)] / 2: (1-e)/(1+s)^3 -
    (1+e)/(1-s)^3, decreasing in s with value -2e at s = 0."""
    s = float(s)
    e = float(epsilon)
    if not (0.0 <= s < 1.0):
        raise DomainError(f"s must be in [0, 1), got {s!r}")
    return (1.0 - e) / (1.0 + s) ** 3 - (1.0 + e) / (1.0 - s) ** 3


def _eps_range_check(n: int, k: int, n_min: int = 3) -> float:
    if n < n_min:
        raise DomainError(f"n must be >= {n_min}, got {n}")
    if not (n / 2 < k <= n - 1):
        raise DomainError(f"k must satisfy n/2 < k <= n-1, got k = {k}")
    return epsilon_of(n, k)


def laplace_pieces(n: int, k: int) -> tuple[float, float, float]:
    """The Stirling/Laplace bookkeeping for (n, k): returns

        (H(1/2) - H(K/N),  Delta,  Lambda)

    where 2 H(t) = (1+e) log t + (1-e) log(1-t),
    Lambda = lam_N - lam_K - lam_{N-K} and
    Delta = log(1 + 1/N) + Lambda - log(1 - e^2)/2 - N e^4 gamma(e).

    The identity H(1/2) - H(K/N) = -e^2/2 - e^4 gamma(e) is re-derived by a
    second, direct evaluation and asserted to 1e-12.
    """
    e = _eps_range_check(n, k)
    N, K = n - 1, k - 1
    g = gamma_eps(e)

    h_diff = -0.5 * e * e - e ** 4 * g
    # independent direct route: H(1/2) = -log 2, H(K/N) with K/N = (1+e)/2
    h_mode = 0.5 * ((1.0 + e) * (math.log1p(e) - math.log(2.0))
                    + (1.0 - e) * (math.log1p(-e) - math.log(2.0)))
    direct = -math.log(2.0) - h_mode
    if abs(direct - h_diff) > 1e-12 * max(1.0, abs(h_diff)):
        raise AssertionError(
            f"entropy identity violated at (n={n}, k={k}): "
            f"{direct} vs {h_diff}")

    lam = lambda_n(N) - lambda_n(K) - lambda_n(N - K)
    delta = (math.log1p(1.0 / N) + lam - 0.5 * math.log1p(-e * e)
             - N * e ** 4 * g)
    return h_diff, delta, lam


def eta_kappa(n: int, k: int) -> tuple[float, float, float]:
    """(log(N)/N, eta, kappa^2) of eq. (11) at (n, k)."""
    e = epsilon_of(n, k)
    N = n - 1
    ell = math.log(N) / N
    # eta solves eta^2/2 + eta e = ell; stable root form avoids cancellation
    eta = 2.0 * ell / (e + math.sqrt(e * e + 2.0 * ell))
    kappa_sq = 1.0 - eta * h_third(eta, e) / 3.0
    return ell, eta, kappa_sq


def theorem1_breakdown(n: int, k: int, log_tail: float) -> float:
    """Residual r_k of the tail expansion log P{X >= k} = -psi(x) + A_n with
    A_n = -N e^4 gamma(e) - log(1-e^2)/2 - lam_{n-k} + r_k, where log_tail
    is the exact log P{X >= k}.  Raises AssertionError where the entropy
    identity of laplace_pieces fails."""
    e = _eps_range_check(n, k, n_min=28)
    N = n - 1
    laplace_pieces(n, k)
    an_exact = float(log_tail) + psi(e * math.sqrt(N))
    an_main = (-N * e ** 4 * gamma_eps(e) - 0.5 * math.log1p(-e * e)
               - lambda_n(n - k))
    return an_exact - an_main


def theorem2_w(n: int, k: int) -> float:
    """Main cutpoint formula
    w = x S(e) + [log(1-e^2) + 2 lam_{n-k}] / (2 x S(e)), x = e sqrt(N)."""
    e = _eps_range_check(n, k, n_min=28)
    if e == 0.0:
        raise DomainError("epsilon must be positive")
    N = n - 1
    xs = e * math.sqrt(N) * s_eps(e)
    return xs + (math.log1p(-e * e) + 2.0 * lambda_n(n - k)) / (2.0 * xs)


def lower_bound_11(n: int, k: int) -> tuple[float, float]:
    """Explicit log-tail sandwich:

        lower = Delta - log kappa - psi(x) + log(1 - exp(-N e eta - N k^2 eta^2/2))
        upper = Delta - psi(x)

    with eta the root of eta^2/2 + eta e = log(N)/N and
    kappa^2 = 1 - eta h'''(eta)/3.  Both bracket the exact log tail.
    """
    e = _eps_range_check(n, k, n_min=28)
    N = n - 1
    x = e * math.sqrt(N)
    _, delta, _ = laplace_pieces(n, k)
    ell, eta, kappa_sq = eta_kappa(n, k)
    # the construction needs a short eta and a mild variance inflation
    if eta > 0.5:
        raise AssertionError(f"eta = {eta} > 1/2 at (n={n}, k={k})")
    if kappa_sq > 1.0 + 6.0 * eta * (eta + e) + 1e-12:
        raise AssertionError(
            f"kappa^2 bound violated at (n={n}, k={k}): {kappa_sq}")
    quad = 0.5 * eta * eta + eta * e
    if abs(quad - ell) > 1e-12 * max(1.0, ell):
        raise AssertionError(f"eta equation violated at (n={n}, k={k})")

    log_tail_normal = -psi(x)
    upper = delta + log_tail_normal
    bracket = math.log1p(-math.exp(-N * e * eta
                                   - 0.5 * N * kappa_sq * eta * eta))
    lower = delta - 0.5 * math.log(kappa_sq) + log_tail_normal + bracket
    return lower, upper


class SmallEpsilonRegime(Exception):
    """Raised when the two-root sandwich is not applicable because the
    log-tail shift beta is nonpositive (the near-center regime)."""


def delta_sandwich(n: int, k: int, z_k: float) -> tuple[float, float, float]:
    """Two-root bracket for the cutpoint.  With x = e sqrt(N) and
    beta = psi(z_k) - psi(x), the roots

        d1 x + d1^2/2 = beta = d2 rho(x) + d2^2/2

    satisfy x + d2 <= z_k <= x + d1.  Returns (d1, d2, beta).

    Raises SmallEpsilonRegime when beta <= 0 (near-center case, where the
    bracket construction does not apply).
    """
    e = _eps_range_check(n, k, n_min=28)
    N = n - 1
    x = e * math.sqrt(N)
    z_k = float(z_k)
    beta = psi(z_k) - psi(x)
    if beta <= 0.0:
        raise SmallEpsilonRegime(
            f"beta = {beta} <= 0 at (n={n}, k={k}): sandwich not applicable")
    rx = rho(x)
    d1 = 2.0 * beta / (math.sqrt(x * x + 2.0 * beta) + x)
    d2 = 2.0 * beta / (math.sqrt(rx * rx + 2.0 * beta) + rx)
    for d, slope in ((d1, x), (d2, rx)):
        resid = d * slope + 0.5 * d * d - beta
        if abs(resid) > 1e-10 * max(1.0, beta):
            raise AssertionError(
                f"quadratic identity violated at (n={n}, k={k}): {resid}")
    return d1, d2, beta


def tusnady_bounds(n: int, k: int, beta_k: float) -> tuple[float, float]:
    """Slacks (beta_k - (k - 1), 3n/2 - sqrt(2n(n-k)) - beta_k) of the
    classical cutpoint bracket k - 1 <= beta_k <= 3n/2 - sqrt(2n(n-k))."""
    if not (n / 2 <= k <= n):
        raise DomainError(f"k must satisfy n/2 <= k <= n, got k = {k}")
    beta_k = float(beta_k)
    return (beta_k - (k - 1),
            1.5 * n - math.sqrt(2.0 * n * (n - k)) - beta_k)


def h_aux(s: float, epsilon: float) -> float:
    """Centered exponent of the beta integrand,
    h(s) = [(1+e) log(1-s) + (1-e) log(1+s)] / 2: zero at s = 0, concave
    and decreasing on [0, 1)."""
    s = float(s)
    e = float(epsilon)
    if not (0.0 <= s < 1.0):
        raise DomainError(f"s must be in [0, 1), got {s!r}")
    if not (0.0 <= e <= 1.0):
        raise DomainError(f"epsilon must be in [0, 1], got {epsilon!r}")
    return 0.5 * ((1.0 + e) * math.log1p(-s) + (1.0 - e) * math.log1p(s))


def eq4_extreme(n: int, B: int) -> float:
    """Main term of the extreme-cutpoint asymptotic:
    beta_{n-B} ~ (1+c)n/2 - (1+2B) log(n)/(4c) with c = s_eps(1)."""
    if B not in (1, 2, 3):
        raise DomainError(f"B must be 1, 2 or 3, got {B}")
    if n < 64 or n - B <= n / 2:
        raise DomainError(f"n too small for B = {B}, got n = {n}")
    c = s_eps(1.0)
    return (1.0 + c) / 2.0 * n - (1.0 + 2.0 * B) * math.log(n) / (4.0 * c)


def eq5_bounds(n: int, k: int, beta_k: float,
               constants: tuple[float, float, float, float]) -> bool:
    """Continuity-corrected cutpoint window with a cubic center term:

        -C1/sqrt(n) + C2 |k-n/2|^3/n^2
            <= beta_k - k + 1/2 <=
        C3 log(n)/sqrt(n) + C4 |k-n/2|^3/n^2
    """
    if not (n / 2 <= k <= n):
        raise DomainError(f"k must satisfy n/2 <= k <= n, got k = {k}")
    c1, c2, c3, c4 = (float(c) for c in constants)
    if min(c1, c2, c3, c4) <= 0.0:
        raise DomainError("all four constants must be positive")
    t = abs(k - n / 2) ** 3 / n ** 2
    d = float(beta_k) - k + 0.5
    sqrt_n = math.sqrt(n)
    return (-c1 / sqrt_n + c2 * t <= d <= c3 * math.log(n) / sqrt_n + c4 * t)
