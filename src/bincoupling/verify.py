"""Sweep harness: runs every inequality check over a grid of (n, k), fits
the existential constants as minimal feasible values, and emits
machine-readable reports.

Fitted constants are regression anchors, not claims about best possible
values: each is the smallest constant making its inequality hold over every
record of the sweep, re-fit separately on the small-n and large-n halves to
audit stability.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

from . import __version__
from .approx import (
    delta_sandwich,
    lower_bound_11,
    theorem1_breakdown,
    theorem2_theta,
    tusnady_bounds,
)
from .binom_exact import log_tail_exact_all
from .cutpoints import N_MAX_TABLE, CutpointTable, build_table, epsilon_of
from .errors import DomainError, SmallEpsilonRegime
from .normal_tail import psi

__all__ = [
    "SweepConfig",
    "VerificationRecord",
    "ConstantsReport",
    "run_sweep",
    "coupling_check",
    "emit_report",
    "load_config",
    "DEFAULT_N_VALUES",
]

DEFAULT_N_VALUES = (28, 29, 64, 100, 128, 256, 512, 1024, 2048)

# epsilon sqrt(N) below this is the near-center regime: the two-root cutpoint
# sandwich is skipped there, and the regime-restricted residual constant
# (c_thm2_tail_regime) is fitted only above it
X_SPLIT = 3.0

DEFAULT_TOLERANCES = {
    "cutpoint": 1e-9,   # deviate units: Tusnady and delta-sandwich slacks
    "log_tail": 1e-9,   # nats: eq.(11) sandwich and defining equation
    "symmetry": 1e-8,   # raw cutpoint units
    "fit": 1e-12,       # slack floor for checks against fitted constants
}

_CONSTANT_FLOOR = 1e-9


@dataclass(frozen=True)
class SweepConfig:
    n_values: tuple[int, ...] = DEFAULT_N_VALUES
    k_policy: str = "extremes_plus_grid"  # "all" | "stride:<m>" | this
    tolerances: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_TOLERANCES))
    output_format: str = "csv"  # "csv" | "json"

    def __post_init__(self):
        if not self.n_values or any(n < 1 for n in self.n_values):
            raise DomainError("n_values must be positive integers")
        if self.k_policy != "all" and self.k_policy != "extremes_plus_grid" \
                and not self.k_policy.startswith("stride:"):
            raise DomainError(f"unknown k_policy {self.k_policy!r}")
        if self.k_policy.startswith("stride:"):
            if int(self.k_policy.split(":", 1)[1]) < 1:
                raise DomainError("stride must be >= 1")
        if self.output_format not in ("csv", "json"):
            raise DomainError(f"unknown output_format {self.output_format!r}")
        if any(t <= 0 for t in self.tolerances.values()):
            raise DomainError("tolerances must be positive")


@dataclass(frozen=True)
class VerificationRecord:
    n: int
    k: int
    check_name: str
    passed: bool
    slack: float


@dataclass(frozen=True)
class ConstantsReport:
    c_thm1: float
    c_thm2: float
    c1_eq5: float
    c2_eq5: float
    c3_eq5: float
    c4_eq5: float
    c_coupling: float
    stability_ratio: float
    # diagnostic: residual constant re-fit over the x >= X_SPLIT regime only,
    # where it is stable; the full-range c_thm2 grows like sqrt(N) because of
    # the k = floor(n/2)+1 corner (see the half-sweep audit)
    c_thm2_tail_regime: float = math.nan


def select_ks(n: int, policy: str) -> list[int]:
    """Thresholds in the upper half [ceil(n/2), n] chosen by the policy; the
    lower half is covered by the reflection symmetry of the table."""
    lo, hi = math.ceil(n / 2), n
    special = {k for k in (n // 2 + 1, n // 2 + 2, n - 3, n - 2, n - 1, n)
               if lo <= k <= hi}
    if policy == "all" or (policy == "extremes_plus_grid" and n <= 512):
        return list(range(lo, hi + 1))
    if policy.startswith("stride:"):
        m = int(policy.split(":", 1)[1])
    else:  # extremes_plus_grid above 512: at most 512 values of k
        m = max(1, (hi - lo + 1) // 512)
    ks = set(range(lo, hi + 1, m)) | special
    return sorted(ks)


@dataclass
class _RawSweepRow:
    """Per-(n, k) raw quantities the constant fits need."""

    n: int
    k: int
    x: float             # epsilon sqrt(N)
    n_r_k: float = math.nan      # N r_k
    n_theta_k: float = math.nan  # N theta_k
    d_eq5: float = math.nan      # beta_k - k + 1/2
    t_eq5: float = math.nan      # |k - n/2|^3 / n^2


def _sweep_one_n(n: int, k_policy: str, tol: dict[str, float]
                 ) -> tuple[list[VerificationRecord], list[_RawSweepRow],
                            float]:
    records: list[VerificationRecord] = []
    raws: list[_RawSweepRow] = []
    table = build_table(n)
    tails = log_tail_exact_all(n)
    N = n - 1

    for k in select_ks(n, k_policy):
        rec = table.record(k)
        raw = _RawSweepRow(n=n, k=k, x=math.nan)
        raws.append(raw)
        raw.d_eq5 = rec.beta - k + 0.5
        raw.t_eq5 = abs(k - n / 2) ** 3 / n ** 2

        # defining equation psi(z_k) = -log tail, re-checked post hoc
        if rec.log_tail < 0.0:
            resid = psi(rec.z) + rec.log_tail
            s = tol["log_tail"] * max(1.0, -rec.log_tail) - abs(resid)
            records.append(VerificationRecord(n, k, "defining_eq", s >= 0, s))

        # symmetry beta_{n-k+1} + beta_k = n
        sym = abs(table.record(n - k + 1).beta + rec.beta - n)
        s = tol["symmetry"] - sym
        records.append(VerificationRecord(n, k, "symmetry", s >= 0, s))

        tc = tusnady_bounds(n, k, rec.beta, tol=tol["cutpoint"])
        records.append(VerificationRecord(
            n, k, "tusnady_lower", tc.holds_lower, tc.slack_lower))
        records.append(VerificationRecord(
            n, k, "tusnady_upper", tc.holds_upper, tc.slack_upper))

        if not (n >= 28 and n / 2 < k <= n - 1):
            continue
        # an internal identity of the expansion failing at one (n, k) is a
        # failed check there, not the end of the sweep
        try:
            raw.x = epsilon_of(n, k) * math.sqrt(N)
            lt = tails[k].log_prob
            b = theorem1_breakdown(n, k, lt)
            raw.n_r_k = N * b.r_k

            lo, up = lower_bound_11(n, k)
            s_lo = lt - lo
            s_up = up - lt
            records.append(VerificationRecord(
                n, k, "eq11_lower", s_lo >= -tol["log_tail"], s_lo))
            records.append(VerificationRecord(
                n, k, "eq11_upper", s_up >= -tol["log_tail"], s_up))

            if b.epsilon > 0.0:
                raw.n_theta_k = N * theorem2_theta(n, k, rec.z)

            if raw.x < X_SPLIT:
                continue
            try:
                d1, d2, beta_shift = delta_sandwich(n, k, rec.z)
            except SmallEpsilonRegime:
                continue
            s_lo = rec.z - (raw.x + d2)
            s_up = (raw.x + d1) - rec.z
            gap = 4.0 * beta_shift / raw.x ** 3 - s_up
            for name, slack in (("sandwich_lower", s_lo),
                                ("sandwich_upper", s_up),
                                ("sandwich_gap", gap)):
                records.append(VerificationRecord(
                    n, k, name, slack >= -tol["cutpoint"], slack))
        except AssertionError:
            records.append(VerificationRecord(
                n, k, "invariant", False, math.nan))

    max_excess, c_coupling = coupling_check(n, table=table)
    records.append(VerificationRecord(
        n, 0, "coupling_k_minus_beta", max_excess <= 1.0 + tol["cutpoint"],
        1.0 - max_excess))
    return records, raws, c_coupling


def _fit_constants(raws: list[_RawSweepRow],
                   c_coupling: float) -> ConstantsReport:
    def fit_half(rows: list[_RawSweepRow]) -> tuple[float, float, float]:
        c1t = c2t = c2r = _CONSTANT_FLOOR
        for r in rows:
            if not math.isnan(r.n_r_k):
                log_n = math.log(r.n - 1)
                c1t = max(c1t, r.n_r_k, -r.n_r_k / log_n)
            if not math.isnan(r.n_theta_k):
                log_n = math.log(r.n - 1)
                need = max(-r.n_theta_k / (r.x + 1.0),
                           r.n_theta_k / (r.x + log_n))
                c2t = max(c2t, need)
                if r.x >= X_SPLIT:
                    c2r = max(c2r, need)
        return c1t, c2t, c2r

    c_thm1, c_thm2, c_thm2_tail = fit_half(raws)

    # Eq. (5): the quadruple is anchored on the cubic-dominated rows, then
    # the sqrt(n) terms absorb whatever is left near the center
    big = [r for r in raws if r.t_eq5 >= 1.0]
    if big:
        c4 = max(max(r.d_eq5 / r.t_eq5 for r in big), _CONSTANT_FLOOR)
        c2 = max(min(r.d_eq5 / r.t_eq5 for r in big), _CONSTANT_FLOOR)
    else:
        c2, c4 = _CONSTANT_FLOOR, 1.0
    c1 = max(max(math.sqrt(r.n) * (c2 * r.t_eq5 - r.d_eq5) for r in raws),
             _CONSTANT_FLOOR)
    c3 = max(max(math.sqrt(r.n) * (r.d_eq5 - c4 * r.t_eq5) / math.log(r.n)
                 for r in raws), _CONSTANT_FLOOR)

    mid = 384  # splits the default sweep into {<=256} and {>=512}
    low = [r for r in raws if r.n <= mid]
    high = [r for r in raws if r.n > mid]
    ratio = 1.0
    if low and high:
        for a, b in zip(fit_half(low), fit_half(high)):
            if a > _CONSTANT_FLOOR and b > _CONSTANT_FLOOR:
                ratio = max(ratio, a / b, b / a)
    return ConstantsReport(
        c_thm1=c_thm1, c_thm2=c_thm2, c1_eq5=c1, c2_eq5=c2, c3_eq5=c3,
        c4_eq5=c4, c_coupling=c_coupling, stability_ratio=ratio,
        c_thm2_tail_regime=c_thm2_tail)


def run_sweep(config: SweepConfig | None = None
              ) -> tuple[list[VerificationRecord], ConstantsReport]:
    """Run every check over the configured grid and fit the constants.

    Output is deterministic: per-n work is pure, and records are sorted
    before reporting.
    """
    config = config or SweepConfig()
    tol = {**DEFAULT_TOLERANCES, **config.tolerances}
    records: list[VerificationRecord] = []
    raws: list[_RawSweepRow] = []
    c_coupling = _CONSTANT_FLOOR
    for n in config.n_values:
        recs, rws, c_cpl = _sweep_one_n(n, config.k_policy, tol)
        records.extend(recs)
        raws.extend(rws)
        c_coupling = max(c_coupling, c_cpl)

    constants = _fit_constants(raws, c_coupling)

    # residual brackets under the fitted constants; feasible by construction,
    # recorded so the report shows the margins
    for r in raws:
        if not math.isnan(r.n_r_k):
            log_n = math.log(r.n - 1)
            s = min(constants.c_thm1 - r.n_r_k,
                    r.n_r_k + constants.c_thm1 * log_n)
            records.append(VerificationRecord(
                r.n, r.k, "thm1_residual", s >= -tol["fit"], s))
        if not math.isnan(r.n_theta_k):
            log_n = math.log(r.n - 1)
            s = min(constants.c_thm2 * (r.x + log_n) - r.n_theta_k,
                    r.n_theta_k + constants.c_thm2 * (r.x + 1.0))
            records.append(VerificationRecord(
                r.n, r.k, "thm2_residual", s >= -tol["fit"], s))
        s = min(r.d_eq5 - (-constants.c1_eq5 / math.sqrt(r.n)
                           + constants.c2_eq5 * r.t_eq5),
                (constants.c3_eq5 * math.log(r.n) / math.sqrt(r.n)
                 + constants.c4_eq5 * r.t_eq5) - r.d_eq5)
        records.append(VerificationRecord(
            r.n, r.k, "eq5_window", s >= -tol["fit"], s))

    records.sort(key=lambda r: (r.check_name, r.n, r.k))
    return records, constants


def coupling_check(n: int, table: CutpointTable | None = None
                   ) -> tuple[float, float]:
    """Deterministic worst case of the coupling over cell endpoints.

    For each k > n/2 the extreme of |k - y| over the cell (beta_k,
    beta_{k+1}] is attained at an endpoint.  Returns max_k (k - beta_k)
    (at most 1, by the classical lower bound k - 1 <= beta_k) and the
    minimal C with |X - Y| <= C + (C/n^2)|k - n/2|^3 at every finite
    endpoint.  The infinite sentinel beyond beta_n is excluded: no constant
    bounds |X - Y| on the top cell's unbounded side.
    """
    if not (1 <= n <= N_MAX_TABLE):
        raise DomainError(f"n must be in [1, {N_MAX_TABLE}], got {n}")
    table = table or build_table(n)
    max_excess = -math.inf
    c = _CONSTANT_FLOOR
    for k in range(n // 2 + 1, n + 1):
        beta_k = table.record(k).beta
        max_excess = max(max_excess, k - beta_k)
        endpoints = [k - beta_k]
        if k < n:
            endpoints.append(table.record(k + 1).beta - k)
        scale = 1.0 + abs(k - n / 2) ** 3 / n ** 2
        for e in endpoints:
            c = max(c, e / scale)
    return max_excess, c


def _fmt(x: float) -> str:
    return format(x, ".17g")


def emit_report(records: list[VerificationRecord],
                constants: ConstantsReport,
                fmt: str,
                config: SweepConfig | None = None) -> bytes:
    """Byte-stable CSV or JSON report, rows sorted by (check, n, k)."""
    if not records:
        raise DomainError("no records to report")
    rows = sorted(records, key=lambda r: (r.check_name, r.n, r.k))
    if fmt == "csv":
        lines = ["n,k,check,passed,slack"]
        lines.extend(f"{r.n},{r.k},{r.check_name},"
                     f"{'true' if r.passed else 'false'},{_fmt(r.slack)}"
                     for r in rows)
        lines.append("")
        return "\n".join(lines).encode()
    if fmt == "json":
        doc = {
            "meta": {
                "config": {
                    "n_values": list(config.n_values) if config else None,
                    "k_policy": config.k_policy if config else None,
                    "tolerances": config.tolerances if config else None,
                },
                "versions": {"bincoupling": __version__,
                             "python": sys.version.split()[0]},
            },
            "records": [
                {"n": r.n, "k": r.k, "check": r.check_name,
                 "passed": r.passed, "slack": _fmt(r.slack)}
                for r in rows
            ],
            "constants": {
                "c_thm1": _fmt(constants.c_thm1),
                "c_thm2": _fmt(constants.c_thm2),
                "c_thm2_tail_regime": _fmt(constants.c_thm2_tail_regime),
                "c1_eq5": _fmt(constants.c1_eq5),
                "c2_eq5": _fmt(constants.c2_eq5),
                "c3_eq5": _fmt(constants.c3_eq5),
                "c4_eq5": _fmt(constants.c4_eq5),
                "c_coupling": _fmt(constants.c_coupling),
                "stability_ratio": _fmt(constants.stability_ratio),
            },
        }
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    raise DomainError(f"unknown format {fmt!r}")


def load_config(path: str) -> SweepConfig:
    """Flat key-value config: one `key = value` per line, '#' comments.

    Keys: n_values (comma-separated), k_policy, output_format,
    tolerance.<name>.
    """
    kwargs: dict = {}
    tolerances = dict(DEFAULT_TOLERANCES)
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key == "n_values":
                kwargs["n_values"] = tuple(
                    int(v) for v in value.replace(",", " ").split())
            elif key == "k_policy":
                kwargs["k_policy"] = value
            elif key == "output_format":
                kwargs["output_format"] = value
            elif key.startswith("tolerance."):
                tolerances[key.split(".", 1)[1]] = float(value)
            else:
                raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
    kwargs["tolerances"] = tolerances
    return SweepConfig(**kwargs)
