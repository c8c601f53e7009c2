"""Standard-normal tail machinery.

Two routes, split at one seam x = 10, keep the negative log-tail ``psi``
and the hazard rate ``rho`` accurate far past the point where the raw tail
probability underflows (the cutpoint solver routinely needs psi at x > 50):

- the erfc route, P{Z > x} = erfc(x / sqrt 2) / 2 from math.erfc, on
  [0, 10];
- beyond the seam the continued fraction of the Mills ratio
  R(x) = tail(x) / phi(x) = 1/(x + 1/(x + 2/(x + 3/(x + ...))))
  (Laplace; DLMF 7.9.3), so rho = 1/R and psi = x^2/2 + log sqrt(2 pi)
  + log rho, with no tail probability formed at all.

Left of 0 both come from the right side at -x: with q = P{Z > -x} =
phi(x) / rho(-x), tail(x) = 1 - q, so psi = -log1p(-q) and
rho = phi(x) / (1 - q), where 1 - q >= 1/2 cancels nothing.
Against 40 digits both stay within 4e-15 relative over [0, 200]; over
[-8, 0) rho within 2.2e-15 and psi within 4.1e-15 (4.01e-15 at -6.75):
there and further left the rounding of x^2 in exp(-x^2/2) allows about
x^2/2 ulp, the left tail's own condition number.  The envelope ends at
X_MIN = -37.5, where psi and rho are still normal floats.

psi, rho, the scalar Newton solve inverse_psi and the sweep all read one
private kernel that returns psi and rho together on both sides of 0.
The module is plain Python.

Symbols, for a standard normal Z:

    phi(x)   density
    tail(x)  P{Z > x}
    psi(x)   -log tail(x)
    rho(x)   phi(x) / tail(x)      (hazard rate, derivative of psi)
    r(x)     rho(x) - x            (positive, decreasing remainder)
"""

from __future__ import annotations

import math

from .errors import DomainError, RangeError, check_real

__all__ = [
    "psi",
    "rho",
    "inverse_psi",
    "X_MIN",
    "X_MAX",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)
LOG_SQRT_2PI = math.log(SQRT_2PI)
SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
INV_SQRT_2 = 1.0 / math.sqrt(2.0)
LOG_2 = math.log(2.0)

# Above this x psi and rho take the continued fraction.  Below it the erfc
# route's error in rho grows like x^2 * 2^-53 (the rounding of u^2 in
# exp(-u^2)); it is under 4e-15 relative up to x = 10.  psi = x^2/2 +
# log sqrt(2 pi) + log rho from the fraction is within 2.2e-16 relative of
# 50 digits over (10, 30], where -log of the erfc route's tail reaches 5.2e-16.
_SEAM = 10.0

# Numerators of the continued fraction at every x past the seam, bottom up,
# as floats: 20 terms, the fewest that give the 80-term double at 6,000,000
# points of (10, 10.1] (16 miss at 88) and at 2,000,000 of (10, 200].
_CF_TERMS = tuple(map(float, range(20, 0, -1)))

# Validated accuracy envelope [X_MIN, X_MAX] for psi, rho and their inverse.
# Outside it the operations fail loudly rather than silently degrade: left
# of X_MIN psi and rho become subnormal, and past x ~ -38.5 they are 0.0.
X_MIN = -37.5
X_MAX = 200.0


def _check_envelope(x: float) -> float:
    if x.__class__ is not float:
        x = check_real("x", x)
    if not math.isfinite(x):
        raise DomainError(f"argument must be finite, got {x!r}")
    if not X_MIN <= x <= X_MAX:
        edge = f"X_MIN = {X_MIN}" if x < X_MIN else f"X_MAX = {X_MAX}"
        raise RangeError(f"x = {x} is past the envelope's edge {edge}")
    return x


def psi(x: float) -> float:
    """Negative log of the upper tail, -log P{Z > x}.

    Never logs an underflowed probability: the erfc route up to x = 10,
    the continued fraction beyond and, left of 0, -log1p of the right
    tail at -x keep it accurate over the whole envelope
    [X_MIN, X_MAX] = [-37.5, 200].
    """
    return _psi_rho(_check_envelope(x))[0]


def rho(x: float) -> float:
    """Hazard rate phi(x)/P{Z > x}, strictly increasing."""
    return _psi_rho(_check_envelope(x))[1]


def _mills_cf(x):
    """1/R(x) = x + 1/(x + 2/(x + 3/(x + ...))) cut after the terms of
    _CF_TERMS and evaluated from the bottom up."""
    t = x
    for k in _CF_TERMS:
        t = x + k / t
    return t


def _psi_rho(x: float) -> tuple[float, float]:
    """(psi, rho) over the envelope, unchecked, with the piece the two
    share evaluated once: erfc(x/sqrt 2) on [0, 10], the continued fraction
    past 10, and left of 0 q = P{Z > -x} = phi(x)/rho(-x) from the kernel
    at -x, so that tail(x) = 1 - q."""
    if x > _SEAM:
        r = _mills_cf(x)
        return 0.5 * x * x + LOG_SQRT_2PI + math.log(r), r
    if x < 0.0:
        e = math.exp(-0.5 * x * x)
        q = e / (SQRT_2PI * _psi_rho(-x)[1])
        return -math.log1p(-q), e / (SQRT_2PI * (1.0 - q))
    # phi/tail at the rounded u = x/sqrt 2, so the error of that rounding
    # cancels between exp(-u^2) and erfc(u)
    u = x * INV_SQRT_2
    erfc_u = math.erfc(u)
    return -math.log(0.5 * erfc_u), SQRT_2_OVER_PI * math.exp(-u * u) / erfc_u


# psi is increasing, so L <= psi(X_MAX) keeps the root inside the envelope
_PSI_X_MAX = psi(X_MAX)


def inverse_psi(L: float) -> float:
    """Solve psi(x) = L for log 2 <= L <= psi(X_MAX) (roots 0 <= x <=
    X_MAX): the package's one psi^-1 solve.

    Plain Newton x <- x - (psi(x) - L)/rho(x).  psi is convex (rho is
    increasing), so every tangent lies below it: from any x >= 0 one step
    lands at or right of the root and the iterates then fall monotonically
    to it; no bracket is needed.  The seed is Newton's first step from
    the root 0 at log 2 up to L = 2.5; past it, the first-order inverse
    x0 = y - log(y)/y, y = sqrt(2L), refined by one fixed-point step
    x = sqrt(2(L - log sqrt(2 pi) - log x0)), which takes a solve from
    3.63 kernel calls to 2.44 over the sweep-dense L.  The solve stops
    after the step with |psi(x) - L| <= 1e-12 max(1, L), keeping that
    step, and is then within 1.65 (ulp(x) + ulp(L)/rho(x)) of the root
    for the exact tail (measured in 50 digits; the second term is L's
    rounding).  The result is checked
    to |psi(x) - L| <= 1e-10 max(1, L); an L above psi(X_MAX) is a
    RangeError.  L is read as psi reads x, by errors.check_real."""
    if L.__class__ is not float:
        L = check_real("L", L)
    if not (math.isfinite(L) and L >= LOG_2):
        raise DomainError(f"L must be finite and at least log 2, got {L!r}")
    if L > _PSI_X_MAX:
        raise RangeError(f"inverse_psi: L > psi(X_MAX) = {_PSI_X_MAX!r} "
                         f"for L = {L!r}")
    # the refined seed's root argument is 0.95 at L = 2.5 and grows with L
    if L > 2.5:
        y = math.sqrt(2.0 * L)
        x = y - math.log(y) / y
        x = math.sqrt(2.0 * (L - LOG_SQRT_2PI - math.log(x)))
    else:
        x = (L - LOG_2) / SQRT_2_OVER_PI
    scale = max(1.0, L)
    tol = 1e-12 * scale
    for _ in range(200):
        p, r = _psi_rho(x)
        f = p - L
        x -= f / r
        if abs(f) <= tol:
            break
    if abs(_psi_rho(x)[0] - L) > 1e-10 * scale:
        raise RangeError(f"inverse_psi: |psi(x) - L| > 1e-10 max(1, L) "
                         f"for L = {L!r}")
    return x
