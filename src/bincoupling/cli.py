"""Command-line verification harness.

Exit codes: 0 all checks pass, 1 some check failed, 2 bad configuration,
3 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys

from .binom_exact import N_MAX_EXACT, _log_tail, tail_numerator
from .cutpoints import build_table, table_csv
from .errors import DomainError, RangeError, check_count
from .normal_tail import _check_envelope, psi, rho
from .verify import (
    SweepConfig,
    _fmt,
    coupling_check,
    emit_report,
    load_config,
    passes,
    run_sweep,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_IO_ERROR = 3

# the most points a lemma1 grid may have; at about 20 us a point (2-CPU
# host, Python 3.11) the limit is a run of a few minutes
LEMMA1_MAX_POINTS = 10 ** 7
# a lemma1 slack passes when it is at least -LEMMA1_REL times the sum of
# the magnitudes of its operands: psi's and rho's 4e-15 relative error
# (normal_tail) plus half an ulp for each of the at most 8 roundings that
# form the slack
LEMMA1_REL = 4e-15 + 8 * 2.0 ** -53
# the most bit-terms, (n - k + 1) n, a tails sum may add; the 4.3e9 of
# tails 65536 0 take 1.7 s on the same host
TAILS_MAX_BIT_TERMS = 10 ** 10


def cmd_tails(args) -> int:
    # n and k as tail_numerator reads them, so a bad n is refused the same
    # way whatever k is
    n = check_count("n", args.n, 1, N_MAX_EXACT)
    k = check_count("k", args.k, 0, n)
    bit_terms = (n - k + 1) * n
    if bit_terms > TAILS_MAX_BIT_TERMS:
        raise DomainError(f"tails {n} {k} sums {bit_terms} "
                          f"bit-terms, more than {TAILS_MAX_BIT_TERMS}")
    # one O(n^2)-bit sum serves both lines
    num = tail_numerator(n, k)
    log_prob = _log_tail(n, k, num)
    print(f"n = {n}  k = {k}")
    print(f"numerator bits = {num.bit_length()}")
    print(f"log_prob = {_fmt(log_prob)}")
    print(f"prob     = {_fmt(math.exp(log_prob))}")
    return EXIT_OK


def cmd_cutpoints(args) -> int:
    sys.stdout.buffer.write(table_csv(build_table(args.n)).encode())
    return EXIT_OK


def cmd_sweep(args) -> int:
    """Run the configured sweep, report it and name each failed row."""
    config = load_config(args.config) if args.config else SweepConfig()
    checks, constants = run_sweep(config)
    payload = emit_report(checks, constants, args.format, config)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
    status = EXIT_OK
    for name, rows in checks.items():
        if all(rows.passed):
            continue
        for n, k, passed, slack in zip(*rows):
            if not passed:
                print(f"FAILED {name} at (n={n}, k={k}), "
                      f"slack {_fmt(slack)}", file=sys.stderr)
                status = EXIT_CHECK_FAILED
    return status


def cmd_lemma1(args) -> int:
    """Monotonicity of rho and r, and the three psi-increment inequalities,
    on a grid of x with a fixed set of increments."""
    try:
        a, b, step = (float(v) for v in args.grid.split(":"))
        if not all(map(math.isfinite, (a, b, step))):
            raise ValueError
        ordered = step > 0 and b > a
        # the points a + i step <= b, up to rounding; a step too small to
        # count them by (1e-320) overflows here
        n_pts = math.floor((b - a) / step * (1 + 1e-9)) + 1 if ordered else 0
    except (ValueError, OverflowError):
        raise DomainError(
            f"bad grid {args.grid!r}, expected a:b:step") from None
    if not ordered:
        raise DomainError("grid must have b > a and step > 0")
    if n_pts > LEMMA1_MAX_POINTS:
        raise DomainError(f"grid {args.grid!r} has {n_pts} points, more "
                          f"than {LEMMA1_MAX_POINTS}")
    deltas = (0.01, 0.1, 1.0, 5.0)
    # the first abscissa and the last plus the largest increment, as the
    # loop computes them, bound every abscissa psi and rho are given
    _check_envelope(a)
    _check_envelope(a + (n_pts - 1) * step + max(deltas))
    worst = math.inf
    failures = 0
    prev_rho, prev_r = -math.inf, math.inf
    for i in range(n_pts):
        x = a + i * step
        rh, px = rho(x), psi(x)
        rr = rh - x  # r(x)
        if not (rh > prev_rho and rr < prev_r):
            failures += 1
        prev_rho, prev_r = rh, rr
        for d in deltas:
            xd = x + d
            pd = psi(xd)
            inc = pd - px
            rh_d = rho(xd)
            slacks = (
                inc - d * rh,                    # (i) lower
                d * rh_d - inc,                  # (i) upper
                inc - xd ** 2 / 2 + x * x / 2
                - d * (rh_d - xd),               # (ii) lower
                d * rr - (inc - xd ** 2 / 2 + x * x / 2),  # (ii) upper
                inc - x * d - d * d / 2,         # (iii) lower
                rh * d + d * d / 2 - inc,        # (iii) upper
            )
            low = min(slacks)
            worst = min(worst, low)
            if low < 0:  # no budget is below 0
                # left of 0 psi's and rho's error grows to about x^2/2 ulp
                rel = LEMMA1_REL + (x * x * 2.0 ** -53 if x < 0 else 0.0)
                # the operands' magnitudes, one sum per inequality
                s1 = px + pd + d * (rh + rh_d)
                s2 = s1 + xd * xd / 2 + x * x / 2 + d * (abs(x) + abs(xd))
                s3 = px + pd + d * (rh + abs(x) + d / 2)
                if any(v < -rel * s for v, s in
                       zip(slacks, (s1, s1, s2, s2, s3, s3))):
                    failures += 1
    print(f"grid [{a}, {b}] step {step}: {n_pts} points, "
          f"{failures} failures, worst slack {_fmt(worst)}")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def cmd_coupling(args) -> int:
    max_excess, c = coupling_check(build_table(args.n))
    print(f"n = {args.n}")
    print(f"max_k (k - beta_k) = {_fmt(max_excess)}")
    print(f"c_coupling = {_fmt(c)}")
    ok = passes("coupling_k_minus_beta", 1.0 - max_excess)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bincoupling",
        description="Verify the Bin(n,1/2) vs N(n/2,n/4) quantile coupling "
                    "and its tail/cutpoint approximations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tails", help="exact tail probability")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_tails)

    p = sub.add_parser("cutpoints", help="cutpoint table for one n")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_cutpoints)

    p = sub.add_parser("lemma1", help="hazard-rate increment inequalities")
    p.add_argument("--grid", default="-8:8:0.001", metavar="a:b:step")
    p.set_defaults(func=cmd_lemma1)

    p = sub.add_parser("coupling", help="worst-case coupling analysis")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_coupling)

    p = sub.add_parser("sweep", help="full verification sweep")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="write report here instead of stdout")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, RangeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR if isinstance(exc, OSError) else EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
