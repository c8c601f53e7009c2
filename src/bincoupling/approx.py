"""Large-deviation expansion of the symmetric Binomial tail and the cutpoint
approximations built on it.

All quantities are indexed by N = n - 1, K = k - 1 and the standardized
index eps = (2K - N)/N, with x = eps sqrt(N) the leading normal deviate.
The main objects:

    gamma(eps)     entropy-defect coefficient, 1/12 at 0, log 2 - 1/2 at 1
    Delta, Lambda  Stirling/Laplace bookkeeping for the beta integral
    an_*           tail expansion  log P{X >= k} = -psi(x) + A_n(eps)
    w, theta       cutpoint expansion  z_k = w_k + theta_k
    eq. (11)       explicit lower/upper log-tail sandwich
    delta sandwich two-root bracket x + d2 <= z_k <= x + d1
    Tusnady bracket  k - 1 <= beta_k <= 3n/2 - sqrt(2n(n-k))
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .binom_exact import lambda_n, lambda_table
from .cutpoints import epsilon_of
from .errors import DomainError, SmallEpsilonRegime
from .normal_tail import psi, psi_rho_array, rho

__all__ = [
    "gamma_eps",
    "s_eps",
    "laplace_pieces",
    "h_third",
    "eta_kappa",
    "theorem1_breakdown",
    "theorem2_w",
    "theorem2_theta",
    "lower_bound_11",
    "delta_sandwich",
    "tusnady_bounds",
    "ExpansionArrays",
    "expansion_arrays",
]

_GAMMA_SEAM = 0.05


def gamma_eps(epsilon: float) -> float:
    """Entropy-defect coefficient

        [(1+e) log(1+e) + (1-e) log(1-e) - e^2] / (2 e^4),

    increasing on [0, 1] from 1/12 to log 2 - 1/2.  Below the seam the
    closed form loses ~8 digits to cancellation, so a power series in e^2
    is used there; the branches agree to 1e-12 at the seam.
    """
    e = float(epsilon)
    if not (0.0 <= e <= 1.0):
        raise DomainError(f"epsilon must be in [0, 1], got {epsilon!r}")
    if e < _GAMMA_SEAM:
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


def theorem2_theta(n: int, k: int, z_k: float) -> float:
    """Residual theta = z_k - w_k of the cutpoint formula."""
    return float(z_k) - theorem2_w(n, k)


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


@dataclass(frozen=True)
class ExpansionArrays:
    """The expansion's terms for one n over an array of k, as arrays.

    Each entry is what the scalar reference functions give at that k.  The
    three ``breaks_*`` masks mark where an internal identity fails: the
    entropy identity of laplace_pieces, the eta/kappa conditions of
    lower_bound_11 and the quadratic identity of delta_sandwich.  Values
    behind a broken identity are not to be used.
    """

    x: np.ndarray           # e sqrt(N)
    r_k: np.ndarray         # theorem1_breakdown's r_k
    eq11_lower: np.ndarray  # lower_bound_11's (lower, upper)
    eq11_upper: np.ndarray
    theta: np.ndarray       # theorem2_theta; nan where e = 0
    # delta_sandwich's (d1, d2, beta); the bracket applies where beta > 0
    d1: np.ndarray
    d2: np.ndarray
    beta_shift: np.ndarray
    breaks_pieces: np.ndarray
    breaks_eq11: np.ndarray
    breaks_sandwich: np.ndarray


def _gamma_array(e: np.ndarray) -> np.ndarray:
    """gamma_eps elementwise for 0 <= e < 1, with the same series below the
    seam (summed term by term in the same order) and closed form above."""
    g = np.empty_like(e)
    small = e < _GAMMA_SEAM
    e2 = e[small] * e[small]
    total = np.zeros_like(e2)
    term_pow = np.ones_like(e2)
    active = np.ones(e2.shape, dtype=bool)
    r = 0
    while active.any():
        term = term_pow / ((2 * r + 3) * (2 * r + 4))
        total = np.where(active, total + term, total)
        active &= ~(term < 1e-17)
        term_pow = term_pow * e2
        r += 1
    g[small] = total
    eb = e[~small]
    g[~small] = ((1.0 + eb) * np.log1p(eb) + (1.0 - eb) * np.log1p(-eb)
                 - eb * eb) / (2.0 * eb ** 4)
    return g


def expansion_arrays(n: int, ks: np.ndarray, log_tail: np.ndarray,
                     z: np.ndarray, psi_z: np.ndarray) -> ExpansionArrays:
    """Array form of theorem1_breakdown, lower_bound_11, theorem2_theta and
    delta_sandwich at every k of ``ks`` (n >= 28, n/2 < k <= n - 1), with the
    exact log tails, the cutpoints z and psi(z) at those k.  lambda is taken
    from one table per n."""
    if n < 28:
        raise DomainError(f"n must be >= 28, got {n}")
    ks = np.asarray(ks)
    if ks.size and not (ks.min() > n / 2 and ks.max() <= n - 1):
        raise DomainError(f"k must satisfy n/2 < k <= n-1 for n = {n}")
    N = n - 1
    K = ks - 1
    e = (2 * K - N) / N
    g = _gamma_array(e)
    lam = lambda_table(N)
    lam_tail = lam[N - K]  # lambda_{n-k}
    e4 = e ** 4
    log1m_e2 = np.log1p(-e * e)
    log2 = math.log(2.0)

    # laplace_pieces: the entropy identity and Delta
    h_diff = -0.5 * e * e - e4 * g
    h_mode = 0.5 * ((1.0 + e) * (np.log1p(e) - log2)
                    + (1.0 - e) * (np.log1p(-e) - log2))
    breaks_pieces = (np.abs(-log2 - h_mode - h_diff)
                     > 1e-12 * np.maximum(1.0, np.abs(h_diff)))
    delta = (math.log1p(1.0 / N) + (lam[N] - lam[K] - lam_tail)
             - 0.5 * log1m_e2 - N * e4 * g)

    # theorem1_breakdown
    x = e * math.sqrt(N)
    psi_x, rx = psi_rho_array(x)
    r_k = (log_tail + psi_x) - (-N * e4 * g - 0.5 * log1m_e2 - lam_tail)

    # lower_bound_11, with the eta and kappa of eta_kappa
    ell = math.log(N) / N
    eta = 2.0 * ell / (e + np.sqrt(e * e + 2.0 * ell))
    h3 = (1.0 - e) / (1.0 + eta) ** 3 - (1.0 + e) / (1.0 - eta) ** 3
    kappa_sq = 1.0 - eta * h3 / 3.0
    breaks_eq11 = ((eta > 0.5)
                   | (kappa_sq > 1.0 + 6.0 * eta * (eta + e) + 1e-12)
                   | (np.abs(0.5 * eta * eta + eta * e - ell)
                      > 1e-12 * max(1.0, ell)))
    eq11_upper = delta - psi_x
    bracket = np.log1p(-np.exp(-N * e * eta - 0.5 * N * kappa_sq * eta * eta))
    eq11_lower = delta - 0.5 * np.log(kappa_sq) - psi_x + bracket

    with np.errstate(divide="ignore", invalid="ignore"):
        # theorem2_theta: z - w, undefined at e = 0
        xs = x * np.sqrt(1.0 + 2.0 * e * e * g)
        w = xs + (log1m_e2 + 2.0 * lam_tail) / (2.0 * xs)
        theta = np.where(e > 0.0, z - w, math.nan)

        # delta_sandwich, where beta_shift > 0
        beta_shift = psi_z - psi_x
        d1 = 2.0 * beta_shift / (np.sqrt(x * x + 2.0 * beta_shift) + x)
        d2 = 2.0 * beta_shift / (np.sqrt(rx * rx + 2.0 * beta_shift) + rx)
        quad_tol = 1e-10 * np.maximum(1.0, beta_shift)
        breaks_sandwich = (
            (np.abs(d1 * x + 0.5 * d1 * d1 - beta_shift) > quad_tol)
            | (np.abs(d2 * rx + 0.5 * d2 * d2 - beta_shift) > quad_tol))

    return ExpansionArrays(
        x=x, r_k=r_k, eq11_lower=eq11_lower, eq11_upper=eq11_upper,
        theta=theta, d1=d1, d2=d2, beta_shift=beta_shift,
        breaks_pieces=breaks_pieces, breaks_eq11=breaks_eq11,
        breaks_sandwich=breaks_sandwich)


def tusnady_bounds(n: int, k: int, beta_k: float) -> tuple[float, float]:
    """Slacks (beta_k - (k - 1), 3n/2 - sqrt(2n(n-k)) - beta_k) of the
    classical cutpoint bracket k - 1 <= beta_k <= 3n/2 - sqrt(2n(n-k))."""
    if not (n / 2 <= k <= n):
        raise DomainError(f"k must satisfy n/2 <= k <= n, got k = {k}")
    beta_k = float(beta_k)
    return (beta_k - (k - 1),
            1.5 * n - math.sqrt(2.0 * n * (n - k)) - beta_k)
