"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of the ``bincoupling`` modules wherever
they are bound: the defining module and every module that took the function
with ``from ... import``.  Each call records one span (name, start, end,
parent) in per-thread arrays kept in memory; ``dump`` writes them once, when
the traced process ends, and ``summarize`` turns a dump into per-layer
numbers.

Parents come from a per-thread stack.  A span that opens on a thread whose
stack is empty (a ``ThreadPoolExecutor`` worker inside ``run_sweep``) takes
as parent the innermost span open on the thread that installed the tracer,
which is the thread that submitted the work in this package.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from array import array

# Public functions wrapped in traced runs, by module of bincoupling.
TARGETS = {
    "cli": ("main",),
    "verify": ("run_sweep", "coupling_check", "emit_report"),
    "approx": ("theorem1_breakdown", "lower_bound_11", "theorem2_theta",
               "delta_sandwich", "tusnady_bounds"),
    "cutpoints": ("build_table", "couple"),
    "binom_exact": ("lambda_n", "log_tail_exact_all"),
    "normal_tail": ("psi", "rho", "r_remainder", "inverse_psi"),
}

# Functions whose first argument is recorded, for distinct-argument ratios.
ARG_TARGETS = ("binom_exact.lambda_n", "binom_exact.log_tail_exact_all")


class _Buffer:
    """Spans opened on one thread, as parallel arrays indexed by span."""

    def __init__(self, slot: int):
        self.slot = slot
        self.stack: list[tuple[int, int]] = []  # (slot, index) of open spans
        self.name = array("i")
        self.parent_slot = array("i")
        self.parent_idx = array("q")
        self.start = array("d")
        self.end = array("d")
        self.arg_idx = array("q")
        self.arg_val = array("q")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = self._buffer()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        record_arg = name in ARG_TARGETS
        local, main_stack, clock = self._local, self._main.stack, time.perf_counter

        def traced(*args, **kwargs):
            buf = getattr(local, "buf", None) or self._buffer()
            stack = buf.stack
            if stack:
                parent = stack[-1]
            else:
                top = main_stack[-1:]  # one atomic read of another thread
                parent = top[0] if top else (-1, -1)
            idx = len(buf.start)
            buf.name.append(nid)
            buf.parent_slot.append(parent[0])
            buf.parent_idx.append(parent[1])
            buf.end.append(0.0)
            if record_arg:
                buf.arg_idx.append(idx)
                buf.arg_val.append(int((args or tuple(kwargs.values()))[0]))
            stack.append((buf.slot, idx))
            buf.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list[str]:
        """Wrap every target in every loaded bincoupling module; returns the
        targets that do not exist in this version of the package."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "bincoupling" or k.startswith("bincoupling.")]
        missing = []
        for modname, fnames in TARGETS.items():
            home = sys.modules.get(f"bincoupling.{modname}")
            for fname in fnames:
                fn = getattr(home, fname, None)
                if not callable(fn):
                    missing.append(f"{modname}.{fname}")
                    continue
                wrapper = self.wrap(f"{modname}.{fname}", fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
        return missing

    def dump(self, path: str) -> None:
        """Write every span as numpy arrays, in thread-slot order."""
        import numpy as np

        bufs = list(self._buffers)
        cat = lambda field, dtype: np.concatenate(  # noqa: E731
            [np.frombuffer(getattr(b, field), dtype=dtype) for b in bufs])
        counts = np.array([len(b.start) for b in bufs], dtype=np.int64)
        arg_slot = np.concatenate(
            [np.full(len(b.arg_idx), b.slot, dtype=np.int64) for b in bufs])
        np.savez(path, names=np.array(json.dumps(self.names)), counts=counts,
                 name=cat("name", np.int32),
                 parent_slot=cat("parent_slot", np.int32),
                 parent_idx=cat("parent_idx", np.int64),
                 start=cat("start", np.float64), end=cat("end", np.float64),
                 arg_slot=arg_slot, arg_idx=cat("arg_idx", np.int64),
                 arg_val=cat("arg_val", np.int64))


def _union_length(starts, ends) -> float:
    order = starts.argsort()
    total, cur_s, cur_e = 0.0, None, None
    for s, e in zip(starts[order], ends[order]):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return float(total)


def summarize(path: str) -> dict[str, dict[str, float]]:
    """Per traced function: calls, self time (duration minus the part of it
    covered by child spans), and for the functions that have them the
    distinct-argument ratio and psi evaluations per inverse_psi solve."""
    import numpy as np

    d = np.load(path)
    names = json.loads(str(d["names"]))
    counts = d["counts"]
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
    name, start, end = d["name"], d["start"], d["end"]
    slot = np.repeat(np.arange(len(counts)), counts)
    pslot = d["parent_slot"]
    has_parent = pslot >= 0
    parent = np.full(len(name), -1, dtype=np.int64)
    parent[has_parent] = offsets[pslot[has_parent]] + d["parent_idx"][has_parent]

    dur = end - start
    cover = np.zeros(len(name))
    same = has_parent & (pslot == slot)
    # children on the parent's own thread run one after another: their
    # coverage is the sum of their durations
    np.add.at(cover, parent[same], dur[same])
    # children on other threads may overlap each other: take the union
    for p in np.unique(parent[has_parent & (pslot != slot)]):
        kids = parent == p
        cover[p] = _union_length(np.clip(start[kids], start[p], end[p]),
                                 np.clip(end[kids], start[p], end[p]))
    self_time = dur - cover

    out: dict[str, dict[str, float]] = {}
    for nid, fname in enumerate(names):
        mask = name == nid
        out[fname] = {"calls": int(mask.sum()),
                      "self_s": float(self_time[mask].sum())}

    arg_gid = offsets[d["arg_slot"]] + d["arg_idx"]
    for fname in ARG_TARGETS:
        if fname in out:
            vals = d["arg_val"][name[arg_gid] == names.index(fname)]
            calls = out[fname]["calls"]
            out[fname]["distinct_ratio"] = (
                len(np.unique(vals)) / calls if calls else 0.0)

    if "normal_tail.inverse_psi" in out and "normal_tail.psi" in out:
        solve_id = names.index("normal_tail.inverse_psi")
        psi_id = names.index("normal_tail.psi")
        under_solve = (name == psi_id) & has_parent
        under_solve[under_solve] = name[parent[under_solve]] == solve_id
        solves = out["normal_tail.inverse_psi"]["calls"]
        out["normal_tail.inverse_psi"]["psi_evals_per_solve"] = (
            int(under_solve.sum()) / solves if solves else 0.0)
    return out
