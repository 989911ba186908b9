"""Spans around the benchmark's own calls into finfree's public functions.

A span is [name, start, end, parent, op, failed, in_bits, out_bits]: parent
is the index of the enclosing span (-1 at top level) and op the id of the
operation it belongs to.  Spans stay in memory and are written out when the
run ends.  Untraced runs call the library modules directly, so tracing off
costs nothing.
"""

from __future__ import annotations

import inspect
import json
import statistics
import types
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

NAME, START, END, PARENT, OP, FAILED, IN_BITS, OUT_BITS = range(8)


def exact_bits(x) -> int:
    """Largest numerator or denominator bit length in an exact value.

    Looks into Fractions, tuples and lists of them, and the finfree records
    that carry them (a, kappa, entries, finite_kappa); anything else is 0.
    """
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    if isinstance(x, (tuple, list)):
        return max((exact_bits(v) for v in x if isinstance(v, (Fraction, tuple))), default=0)
    for attr in ("a", "kappa", "entries", "finite_kappa"):
        vals = getattr(x, attr, None)
        if isinstance(vals, tuple):
            return exact_bits(vals)
    return 0


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield
        except BaseException:
            rec[FAILED] = True
            raise
        finally:
            rec[END] = perf_counter()
            self._stack.pop()

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.op, False, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
                if inspect.isgenerator(out):
                    out = list(out)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                rec[END] = perf_counter()
                self._stack.pop()
            rec[IN_BITS] = exact_bits(args[0]) if args else 0
            rec[OUT_BITS] = exact_bits(out)
            return out

        return traced

    def module(self, name, mod):
        """A stand-in for module mod whose functions record spans named
        '<name>.<function>'; classes and constants pass through."""
        ns = types.SimpleNamespace()
        for attr, val in vars(mod).items():
            if (inspect.isfunction(val) and not attr.startswith("_")
                    and val.__module__ == mod.__name__):
                val = self.wrap("%s.%s" % (name, attr), val)
            setattr(ns, attr, val)
        return ns

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op", "failed",
                            "in_bits", "out_bits"],
                 "spans": self.spans},
                fh,
            )

    def layer_stats(self, skip_op=None) -> dict:
        """Per span name: calls, busy_s (self time), p50_ms, failed,
        in_bits_max, out_bits_max, over spans whose op is not skip_op."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        groups = {}
        for i, rec in enumerate(self.spans):
            if rec[OP] == skip_op:
                continue
            g = groups.setdefault(rec[NAME], {"durs": [], "busy_s": 0.0, "failed": 0,
                                              "in_bits_max": 0, "out_bits_max": 0})
            dur = rec[END] - rec[START]
            g["durs"].append(dur)
            g["busy_s"] += dur - child[i]
            g["failed"] += rec[FAILED]
            g["in_bits_max"] = max(g["in_bits_max"], rec[IN_BITS])
            g["out_bits_max"] = max(g["out_bits_max"], rec[OUT_BITS])
        out = {}
        for name, g in groups.items():
            out[name] = {
                "calls": len(g["durs"]),
                "busy_s": g["busy_s"],
                "p50_ms": 1e3 * statistics.median(g["durs"]),
                "failed": g["failed"],
                "in_bits_max": g["in_bits_max"],
                "out_bits_max": g["out_bits_max"],
            }
        return out

    def first_durations(self, op) -> dict:
        """Duration of the first span of each name within operation op."""
        out = {}
        for rec in self.spans:
            if rec[OP] == op and rec[NAME] not in out:
                out[rec[NAME]] = rec[END] - rec[START]
        return out
