"""Runs one workload process with the tracer installed and writes its spans.

    python traced.py SPANS.npz cli ARGS...      # bincoupling.cli.main(ARGS)
    python traced.py SPANS.npz couple ARGS...   # couple_stream.main(ARGS)

The process behaves like its untraced counterpart (same stdout, files and
exit code); the spans are written to SPANS.npz after the workload returns.
"""

from __future__ import annotations

import sys

import bincoupling  # noqa: F401  (loads every module the tracer patches)
import bincoupling.cli

from tracer import Tracer


def main() -> int:
    spans_path, mode, *argv = sys.argv[1:]
    tracer = Tracer()
    missing = tracer.install()
    if missing:
        print("untraced (not found): " + " ".join(missing), file=sys.stderr)
    try:
        if mode == "cli":
            return bincoupling.cli.main(argv)
        import couple_stream
        return couple_stream.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
