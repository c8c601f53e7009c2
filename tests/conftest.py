import math
import pathlib

import mpmath as mp
import pytest

from bincoupling import DomainError

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
N_MAX_QUAD = 4096

# scoreboard filled by test_acceptance._verdict, one line per criterion;
# printed after the run since fd-level capture swallows in-test output
acceptance_verdicts: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_verdicts:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_verdicts:
            terminalreporter.write_line(line)


# 50-digit references, one per quantity; each evaluates at the caller's
# mp.dps, so call them inside mp.workdps(50)

def psi_mp(x):
    """-log P{Z > x}."""
    return -mp.log(mp.erfc(x / mp.sqrt(2)) / 2)


def rho_mp(x):
    """phi(x) / P{Z > x}."""
    return mp.sqrt(2 / mp.pi) * mp.exp(-x * x / 2) / mp.erfc(x / mp.sqrt(2))


def lambda_mp(m: int):
    """log m! minus its Stirling lead."""
    return mp.loggamma(m + 1) - ((m + mp.mpf(1) / 2) * mp.log(m) - m
                                 + mp.log(mp.sqrt(2 * mp.pi)))


def gamma_mp(e):
    """gamma(e) for e != 0, in closed form."""
    return ((1 + e) * mp.log(1 + e) + (1 - e) * mp.log(1 - e) - e * e) \
        / (2 * e ** 4)


def log_tail_mp(n: int, k: int):
    """log P{Bin(n, 1/2) >= k} from the exact big-integer numerator."""
    num, c = 0, 1  # C(n, j) for j = n, n - 1, ..., k
    for j in range(n, k - 1, -1):
        num += c
        c = c * j // (n - j + 1)
    return mp.log(num) - n * mp.log(2)


def z_unit(z: float, L: float, rho_z: float) -> float:
    """The unit of a solved cutpoint's float error: an ulp of z plus an ulp
    of L = -log tail carried into z by 1/rho(z).  L is rounded to a float
    before the solve, so near the centre, where z is small and L near
    log 2, the second term outweighs ulp(z) many times over."""
    return math.ulp(z) + math.ulp(L) / rho_z


def log_tail_beta_integral(n: int, k: int) -> float:
    """Log of P{Bin(n, 1/2) >= k} via its incomplete-beta representation:

        n!/((k-1)!(n-k)!) * integral_0^{1/2} t^{k-1} (1-t)^{n-k} dt

    evaluated by scipy's adaptive quadrature with the integrand rescaled in
    the log domain.  Independent of the big-integer route; the two agree to
    1e-8 relative in the log."""
    if not (1 <= n <= N_MAX_QUAD):
        raise DomainError(f"n must be in [1, {N_MAX_QUAD}], got {n}")
    if not (1 <= k <= n):
        raise DomainError(f"k must be in [1, {n}] (k = 0 has no "
                          f"beta-integral form), got {k}")
    from scipy import integrate

    log_pref = math.lgamma(n + 1) - math.lgamma(k) - math.lgamma(n - k + 1)

    a, b = float(k - 1), float(n - k)

    def log_integrand(t: float) -> float:
        if t <= 0.0:
            return 0.0 if a == 0.0 else -math.inf
        if t >= 1.0:
            return 0.0 if b == 0.0 else -math.inf
        return a * math.log(t) + b * math.log1p(-t)

    # rescale so the integrand peaks at 1: mode of t^a (1-t)^b is a/(a+b)
    mode = a / (a + b) if a + b > 0.0 else 0.0
    peak = mode if mode < 0.5 else 0.5
    shift = log_integrand(peak)
    points = [mode] if 0.0 < mode < 0.5 else None

    def integrand(t: float) -> float:
        return math.exp(log_integrand(t) - shift)

    val, _err = integrate.quad(integrand, 0.0, 0.5, epsabs=1e-300,
                               epsrel=1e-11, limit=200, points=points)
    return log_pref + shift + math.log(val)


def load_tail_fixture():
    """Rows (x, tail, psi) from the frozen 50-digit quadrature table."""
    rows = []
    for line in (FIXTURES / "normal_tail_table.txt").read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        x, tail, psi = line.split()
        rows.append((float(x), mp.mpf(tail), mp.mpf(psi)))
    return rows


@pytest.fixture(scope="session")
def tail_fixture():
    return load_tail_fixture()


@pytest.fixture(scope="session")
def default_tables():
    """Cutpoint tables for the default sweep, built once."""
    from bincoupling import build_table

    ns = (28, 29, 64, 100, 128, 256, 512, 1024, 2048)
    return {n: build_table(n) for n in ns}
