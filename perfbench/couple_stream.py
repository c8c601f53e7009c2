"""Worker process of the couple-stream workload.

Builds one cutpoint table per n (the set-up), prints ``ready``, draws seeded
N(n/2, n/4) samples for the tables in turn, then calls ``couple(table, y)`` one draw at a time over
the whole list, pass after pass until the timed window is at least
``--window`` seconds.  After the first pass it prints ``pass``.  The last line
is a JSON object with the counts, the time of each pass, the betas of every
table and a sample of (table, y, k) triples for the brute-force check in
``gates``.

    python couple_stream.py --seed 1 --ns 64,1024,4096 --draws 1500 \
        --window 1.0 --sample-every 4
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time

import bincoupling


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--ns", required=True)
    p.add_argument("--draws", type=int, required=True)
    p.add_argument("--window", type=float, required=True)
    p.add_argument("--sample-every", type=int, required=True)
    args = p.parse_args(argv)
    ns = [int(v) for v in args.ns.split(",")]

    tables = [bincoupling.build_table(n) for n in ns]
    print("ready", flush=True)

    rng = random.Random(args.seed)
    # the same mix of tables in every pass, so passes differ only in time
    which = [j % len(ns) for j in range(args.draws)]
    draws = [(tables[i], rng.gauss(ns[i] / 2, math.sqrt(ns[i]) / 2))
             for i in which]
    couple = bincoupling.couple

    pass_s = []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        ks = [couple(table, y) for table, y in draws]
        pass_s.append(time.perf_counter() - start)
        elapsed = time.perf_counter() - t0
        if len(pass_s) == 1:
            first_ks = ks
            print("pass", flush=True)
        if elapsed >= args.window:
            break

    sample = [(which[j], draws[j][1], first_ks[j])
              for j in range(0, args.draws, args.sample_every)]
    print(json.dumps({
        "draws": len(pass_s) * args.draws,
        "pass_s": pass_s,
        "window_s": elapsed,
        "betas": [[float(b) for b in t.betas] for t in tables],
        "sample": sample,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
