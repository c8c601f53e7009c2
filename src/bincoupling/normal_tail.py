"""Standard-normal tail machinery.

Everything here is built on the scaled complementary error function
erfcx(u) = exp(u^2) erfc(u), so that the negative log-tail ``psi`` and the
hazard rate ``rho`` stay accurate far past the point where the raw tail
probability underflows (the cutpoint solver routinely needs psi at x > 50).

Symbols, for a standard normal Z:

    phi(x)   density
    tail(x)  P{Z > x}
    psi(x)   -log tail(x)
    rho(x)   phi(x) / tail(x)      (hazard rate, derivative of psi)
    r(x)     rho(x) - x            (positive, decreasing remainder)
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

from .errors import DomainError, RangeError

__all__ = [
    "phi",
    "upper_tail",
    "psi",
    "rho",
    "r_remainder",
    "psi_array",
    "rho_array",
    "inverse_psi",
    "inverse_psi_array",
    "inv_tail_asymptotic",
    "X_MAX",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
INV_SQRT_2 = 1.0 / math.sqrt(2.0)

# Validated accuracy envelope for psi / rho / inverse_psi.  Outside it the
# operations fail loudly rather than silently degrade.
X_MAX = 200.0


def _check_finite(x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"argument must be finite, got {x!r}")
    return x


def _check_envelope(x: float) -> float:
    x = _check_finite(x)
    if abs(x) > X_MAX:
        raise RangeError(f"|x| = {abs(x)} exceeds validated envelope {X_MAX}")
    return x


def phi(x: float) -> float:
    """Standard normal density."""
    x = _check_finite(x)
    return math.exp(-0.5 * x * x) / SQRT_2PI


def upper_tail(x: float) -> float:
    """P{Z > x}.  Underflows gracefully to 0 for x beyond ~38; callers that
    need the deep tail work with psi instead."""
    x = _check_finite(x)
    return 0.5 * math.erfc(x * INV_SQRT_2)


def psi(x: float) -> float:
    """Negative log of the upper tail, -log P{Z > x}.

    Evaluated through the scaled tail (never by logging an underflowed
    probability), so it stays accurate over the whole envelope |x| <= 200.
    """
    x = _check_envelope(x)
    # log_ndtr(t) = log P{Z <= t}; P{Z > x} = P{Z <= -x}.
    return -float(sp.log_ndtr(-x))


def rho(x: float) -> float:
    """Hazard rate phi(x)/P{Z > x}, strictly increasing."""
    x = _check_envelope(x)
    if x <= -26.0:
        # tail is 1 to within ~1e-148; avoids overflow in erfcx(-u)
        return phi(x)
    # phi(x)/tail(x) = sqrt(2/pi) / erfcx(x/sqrt(2))
    return SQRT_2_OVER_PI / float(sp.erfcx(x * INV_SQRT_2))


def r_remainder(x: float) -> float:
    """rho(x) - x: positive for all x, strictly decreasing, O(1/x) at +inf."""
    x = _check_envelope(x)
    return rho(x) - x


def psi_array(x: np.ndarray) -> np.ndarray:
    """psi elementwise, by the same scipy call as the scalar psi, so the two
    agree bit for bit.  The caller keeps x finite and inside the envelope."""
    return -sp.log_ndtr(-x)


def rho_array(x: np.ndarray) -> np.ndarray:
    """rho elementwise for x > -26, by the same formula as the scalar rho."""
    return SQRT_2_OVER_PI / sp.erfcx(x * INV_SQRT_2)


def inv_tail_asymptotic(p: float) -> float:
    """First-order asymptotic inverse of the upper tail for small p:
    y - log(y)/y with y = sqrt(2 log(1/p)).  O(1/y) accuracy only; used as
    a Newton seed and for consistency checks at extreme cutpoints."""
    p = float(p)
    if not (0.0 < p < 0.1):
        raise DomainError(f"p must lie in (0, 0.1), got {p!r}")
    y = math.sqrt(2.0 * math.log(1.0 / p))
    return y - math.log(y) / y


def inverse_psi(L: float) -> float:
    """Solve psi(x) = L for x, to |psi(x) - L| <= 1e-10 * max(1, L).

    Safeguarded Newton iteration x <- x - (psi(x) - L)/rho(x); psi is convex
    (its derivative rho is increasing) so Newton from a bracketed seed
    converges monotonically, with bisection as the fallback.
    """
    L = float(L)
    if not (L > 0.0) or not math.isfinite(L):
        raise DomainError(f"L must be positive and finite, got {L!r}")
    psi_max = psi(X_MAX)
    if L > psi_max:
        raise RangeError(f"L = {L} exceeds psi({X_MAX}) = {psi_max}")

    log2 = math.log(2.0)
    if L >= log2:
        # the root lies in [0, X_MAX]; no iterate may leave the envelope
        lo, hi = 0.0, min(math.sqrt(2.0 * L) + 2.0, X_MAX)
        if L > 2.5:
            # same formula as inv_tail_asymptotic(e^{-L}), stated in L so it
            # works even where e^{-L} underflows
            y = math.sqrt(2.0 * L)
            x = y - math.log(y) / y
        else:
            x = 0.5
    else:
        # mirrored bracket: x < 0, lower tail P{Z <= x} = 1 - e^{-L}
        p_low = -math.expm1(-L)
        lo = -(math.sqrt(2.0 * math.log(1.0 / p_low)) + 2.0)
        hi = 0.0
        x = -0.5
    x = min(max(x, lo), hi)

    tol = 1e-12 * max(1.0, L)
    for _ in range(200):
        f = psi(x) - L
        if f > 0.0:
            hi = min(hi, x)
        else:
            lo = max(lo, x)
        if abs(f) <= tol:
            return x
        step = f / rho(x)
        x_new = x - step
        if not (lo <= x_new <= hi):
            x_new = 0.5 * (lo + hi)
        if x_new == x:
            break
        x = x_new
    if abs(psi(x) - L) > 1e-10 * max(1.0, L):
        raise RangeError(f"inverse_psi failed to converge for L = {L}")
    return x


def inverse_psi_array(L: np.ndarray) -> np.ndarray:
    """inverse_psi elementwise, to the same contract
    |psi(x) - L| <= 1e-10 * max(1, L).

    Entries with L >= log 2 (roots x >= 0) run the scalar solver's Newton
    iteration together: the same seed, bracket, step and stopping rule, one
    numpy pass per iteration.  The rest, and any entry that misses the
    contract, are solved by the scalar inverse_psi.
    """
    L = np.asarray(L, dtype=float)
    if L.size and not (np.isfinite(L).all() and L.min() > 0.0):
        raise DomainError("L must be positive and finite")
    vec = L >= math.log(2.0)
    # the other entries sit out the Newton pass with a harmless stand-in L
    Lv = np.where(vec, L, 1.0)
    y = np.sqrt(2.0 * Lv)
    x = np.where(Lv > 2.5, y - np.log(y) / y, 0.5)
    lo = np.zeros_like(Lv)
    hi = np.minimum(y + 2.0, X_MAX)
    x = np.minimum(np.maximum(x, lo), hi)
    tol = 1e-12 * np.maximum(1.0, Lv)
    active = vec.copy()
    for _ in range(200):
        f = psi_array(x) - Lv
        hi = np.where(active & (f > 0.0), np.minimum(hi, x), hi)
        lo = np.where(active & (f <= 0.0), np.maximum(lo, x), lo)
        x_new = x - f / rho_array(x)
        x_new = np.where((lo <= x_new) & (x_new <= hi), x_new,
                         0.5 * (lo + hi))
        active &= (np.abs(f) > tol) & (x_new != x)
        if not active.any():
            break
        x = np.where(active, x_new, x)
    missed = ~vec | (np.abs(psi_array(x) - Lv) > 1e-10 * np.maximum(1.0, Lv))
    for i in np.flatnonzero(missed):
        x[i] = inverse_psi(L[i])
    return x
