"""In-memory span tracer for brace-forge's public entry points.

A span is one call of a traced function: its name, start, end and the
span that was open when it began (its parent).  Spans are kept in flat
arrays and only summarised when the traced process ends.

``Tracer.install`` wraps each traced function once and puts the wrapper
into every loaded ``brace_forge`` module that holds the original: callers
look names up in their own module namespace (``verify`` imports
``is_semiprime`` into its globals, ``products`` reaches ``validate``
through ``core.brace_from_tables``), so patching only the defining module
would miss them.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from collections import defaultdict


def _validate_label(args, kwargs, result):
    return f"core.validate_{result.mode}", {}


def _is_semiprime_label(args, kwargs, result):
    return f"ideals.is_semiprime_{result.method}", {}


def _enumerate_ideals_label(args, kwargs, result):
    return "ideals.enumerate_ideals", {"ideals_found": len(result)}


def _is_ideal_label(args, kwargs, result):
    return "ideals.is_ideal", {"accepted": int(bool(result[0]))}


def _skew_automorphisms_label(args, kwargs, result):
    brace = args[0] if args else kwargs["brace"]
    # (n-1)! is the size of the brute-force permutation space the current
    # search walks for an order-n brace; the count is made from outside
    return "autos.skew_automorphisms", {
        "found": len(result),
        "perms_tested": math.factorial(max(brace.order - 1, 0)),
        "distinct": (brace.add.tobytes(), brace.circ.tobytes()),
    }


def _sigma_actions_label(args, kwargs, result):
    return "autos.sigma_actions", {"actions": len(result)}


def _fixed(name):
    return lambda args, kwargs, result: (name, {})


# (module, function, labeller): the labeller names the finished span and
# returns its counters.  Counters whose value is not a number are
# collected as a set, so their summary is a count of distinct values.
TRACED = (
    ("core", "validate", _validate_label),
    ("ideals", "enumerate_ideals", _enumerate_ideals_label),
    ("ideals", "is_ideal", _is_ideal_label),
    ("ideals", "is_semiprime", _is_semiprime_label),
    ("products", "wreath_base", _fixed("products.wreath_base")),
    ("products", "semidirect", _fixed("products.semidirect")),
    ("autos", "skew_automorphisms", _skew_automorphisms_label),
    ("autos", "sigma_actions", _sigma_actions_label),
    ("corpus", "standard_corpus", _fixed("corpus.standard_corpus")),
    ("corpus", "holomorph_enumerate", _fixed("corpus.holomorph_enumerate")),
    ("docio", "serialize_document", _fixed("docio.serialize_document")),
    ("verify", "verify_lemma31", _fixed("verify")),
    ("verify", "verify_lemma32", _fixed("verify")),
    ("verify", "verify_cor28_thm33", _fixed("verify")),
    ("verify", "search_q34", _fixed("verify")),
)


class Tracer:
    """Records spans of wrapped calls in one thread of one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str | None] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.distinct: dict[str, dict[str, set]] = defaultdict(lambda: defaultdict(set))
        self._open: list[int] = []

    def begin(self) -> int:
        index = len(self.names)
        self.names.append(None)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self._open.append(index)
        self.starts.append(self.clock())
        return index

    def end(self, index: int, name: str, counts=None) -> None:
        self.ends[index] = self.clock()
        self.names[index] = name
        self._open.pop()
        for key, value in (counts or {}).items():
            if isinstance(value, int):
                self.counters[name][key] += value
            else:
                self.distinct[name][key].add(value)

    def wrap(self, fn, label, fallback: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(index, fallback)
                raise
            name, counts = label(args, kwargs, result)
            self.end(index, name, counts)
            return result
        return traced

    def install(self) -> None:
        """Wrap every function in TRACED wherever brace_forge refers to it."""
        import brace_forge  # noqa: F401  (loads every submodule)

        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "brace_forge" or name.startswith("brace_forge."))]
        for module, attr, label in TRACED:
            original = getattr(sys.modules[f"brace_forge.{module}"], attr)
            wrapper = self.wrap(original, label, f"{module}.{attr}")
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds, counters."""
        out = summarize(self.names, self.starts, self.ends, self.parents)
        for name, counts in self.counters.items():
            out.setdefault(name, _empty()).update(counts)
        for name, sets in self.distinct.items():
            for key, values in sets.items():
                out.setdefault(name, _empty())[key] = len(values)
        return out


def _empty() -> dict:
    return {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}


def summarize(names, starts, ends, parents) -> dict:
    """Self time of a span is its duration minus the durations of its
    direct children; spans of one thread nest, so children never overlap."""
    child_time = [0.0] * len(names)
    for i, parent in enumerate(parents):
        if parent >= 0 and names[i] is not None:
            child_time[parent] += ends[i] - starts[i]
    out: dict[str, dict] = {}
    for i, name in enumerate(names):
        if name is None:
            continue  # still open: the process ended inside this call
        row = out.setdefault(name, _empty())
        duration = ends[i] - starts[i]
        row["calls"] += 1
        row["inclusive_s"] += duration
        row["self_s"] += duration - child_time[i]
    return out
