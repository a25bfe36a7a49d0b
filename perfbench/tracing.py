"""Span tracing around msnlib's layers, installed from outside the library.

:func:`install` replaces the public functions of each layer with wrappers
that record one span per call: name, start, end and the span that was open
when the call began.  It patches every msnlib module that imported the
function by name, so calls between modules are seen too, and
:meth:`Tracer.uninstall` puts the originals back.

A layer's self time is the duration of its spans minus the time their child
spans cover.  Calls are synchronous and single-threaded, so children nest
inside their parent and the covered time is the sum of their durations.
Work the tracer itself does after a call (measuring entry bit lengths) is
recorded as a ``trace.*`` span, so it is charged to the tracer and not to
the caller.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (module, attribute, span name); "Class.method" attributes patch the class
LAYERS = [
    ("msnlib.linalg", "RationalMatrix.__matmul__", "linalg.matmul"),
    ("msnlib.linalg", "RationalMatrix.inverse", "linalg.inverse"),
    ("msnlib.linalg", "partition", "linalg.partition"),
    ("msnlib.linalg", "is_commutable", "linalg.is_commutable"),
    ("msnlib.msn", "msn_direct", "msn.msn_direct"),
    ("msnlib.msn", "msn_table", "msn.msn_table"),
    ("msnlib.msn", "surjection_count", "msn.surjection_count"),
    ("msnlib.msn1", "msn1_table", "msn1.msn1_table"),
    ("msnlib.markov", "moment_k_convolved", "markov.convolved"),
    ("msnlib.markov", "moment_recursive", "markov.recursive"),
    ("msnlib.markov", "moment_n1_closed", "markov.closed"),
    ("msnlib.markov", "moment_r1_closed", "markov.closed"),
    ("msnlib.markov", "moment_nk_commutable", "markov.closed"),
    ("msnlib.markov", "moment_rk_commutable", "markov.closed"),
    ("msnlib.markov", "moment_rk_scalar", "markov.scalar"),
    ("msnlib.markov", "moment_renewal", "markov.scalar"),
    ("msnlib.markov", "moment_nk_rowsum", "markov.scalar"),
    ("msnlib.markov", "moment_nb", "markov.scalar"),
    ("msnlib.markov", "moment_anb", "markov.scalar"),
    ("msnlib.distributions", "raw_moment", "distributions.raw_moment"),
    ("msnlib.distributions", "central_closed", "distributions.central_closed"),
    ("msnlib.simulate", "simulate", "simulate"),
    ("msnlib.cli", "run", "cli.run"),
]

# every public function and TruncatedSeries method counts as the series layer
SERIES_MODULE = "msnlib.series"
_UNTRACED_METHODS = ("__init__", "__repr__", "__hash__", "__eq__")
IDENTITY_CODES = ("a17", "comb", "a21", "a30", "a31")


def _entry_bits(matrix) -> int:
    return max(
        max(v.numerator.bit_length(), v.denominator.bit_length())
        for row in matrix.entries
        for v in row
    )


class Tracer:
    """Spans in flat arrays, plus counters for things that are not spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open = [-1]
        self.counters: dict[str, int] = {}
        self.bits_max = 0
        self._restore: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _record(self, nid: int, t0: float, t1: float, parent: int):
        self.name.append(nid)
        self.start.append(t0)
        self.end.append(t1)
        self.parent.append(parent)

    def wrap(self, name: str, fn, after=None):
        """`fn` recording a span per call; `after(result)` runs untimed."""
        nid = self._name_id(name)
        after_id = self._name_id("trace.after")
        clock = time.perf_counter
        spans, open_stack = self.start, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = open_stack[-1]
            self._record(nid, 0.0, 0.0, parent)
            open_stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if after is not None:
                after(result)
                self._record(after_id, t1, clock(), parent)
            return result

        return traced

    def count(self, name: str, fn):
        """`fn` incrementing a counter per call, without a span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counters[name] = self.counters.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, owner, attr: str, value):
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, replacement):
        """Rebind every msnlib module global that names `original`."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "msnlib" and not mod_name.startswith("msnlib."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def install(self):
        """Wrap every layer listed in LAYERS, the series layer, the identity
        checks and the simulator's round kernel."""
        for mod_name, attr, name in LAYERS:
            module = sys.modules.get(mod_name)
            if module is None:  # msnlib.cli is imported only by the CLI
                continue
            after = self._after_matrix if name in ("linalg.matmul", "linalg.inverse") else None
            if name == "simulate":
                after = self._after_simulate
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, meth, self.wrap(name, vars(cls)[meth], after))
            else:
                original = getattr(module, attr)
                self._patch_everywhere(original, self.wrap(name, original, after))

        series = sys.modules[SERIES_MODULE]
        for attr, value in list(vars(series).items()):
            if attr.startswith("_") or not callable(value) or getattr(value, "__module__", None) != SERIES_MODULE:
                continue
            if isinstance(value, type):
                for meth, fn in list(vars(value).items()):
                    if isinstance(fn, classmethod):
                        self._set(value, meth, classmethod(self.wrap("series", fn.__func__)))
                    elif callable(fn) and (meth[:2] == "__" or meth[0] != "_") and meth not in _UNTRACED_METHODS:
                        self._set(value, meth, self.wrap("series", fn))
            else:
                self._patch_everywhere(value, self.wrap("series", value))

        identities = sys.modules["msnlib.identities"]
        checks = identities.IDENTITY_CHECKS
        self._restore.append((checks, None, list(checks)))
        checks[:] = [
            (label, self.wrap(f"identities.{label}", fn, self._after_identity))
            for label, fn in checks
        ]

        kernels = sys.modules["msnlib._sim_kernels"].KERNELS
        self._restore.append((kernels, None, dict(kernels)))
        for key, fn in list(kernels.items()):
            kernels[key] = self.count("simulate.rounds", fn)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            if attr is None:
                if isinstance(owner, list):
                    owner[:] = value
                else:
                    owner.clear()
                    owner.update(value)
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    def _after_matrix(self, result):
        self.bits_max = max(self.bits_max, _entry_bits(result))

    def _after_simulate(self, result):
        self.counters["simulate.truncated"] = self.counters.get("simulate.truncated", 0) + result.truncated

    def _after_identity(self, cases):
        self.counters["identities.cases"] = self.counters.get("identities.cases", 0) + cases

    def summary(self) -> dict:
        """Self seconds and call counts per span name, plus the counters."""
        n = len(self.start)
        child_time = [0.0] * n
        for i in range(n):
            parent = self.parent[i]
            if parent >= 0:
                child_time[parent] += self.end[i] - self.start[i]
        layers: dict[str, dict] = {}
        for i in range(n):
            entry = layers.setdefault(self.names[self.name[i]], {"self_s": 0.0, "calls": 0})
            entry["self_s"] += self.end[i] - self.start[i] - child_time[i]
            entry["calls"] += 1
        return {"layers": layers, "counters": dict(self.counters), "bits_max": self.bits_max}


def merge(summaries: list[dict]) -> dict:
    """Add up summaries from several processes or passes."""
    layers: dict[str, dict] = {}
    counters: dict[str, int] = {}
    bits = 0
    for s in summaries:
        for name, entry in s["layers"].items():
            acc = layers.setdefault(name, {"self_s": 0.0, "calls": 0})
            acc["self_s"] += entry["self_s"]
            acc["calls"] += entry["calls"]
        for name, value in s["counters"].items():
            counters[name] = counters.get(name, 0) + value
        bits = max(bits, s["bits_max"])
    return {"layers": layers, "counters": counters, "bits_max": bits}


def layer_metrics(summary: dict, passes: int) -> dict[str, tuple[float, str]]:
    """The per-layer metric values, per traced pass, by metric name."""
    layers, counters = summary["layers"], summary["counters"]

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0) / passes

    def calls(name):
        return layers.get(name, {}).get("calls", 0) / passes

    out = {
        "linalg.matmul.calls": (calls("linalg.matmul"), "count"),
        "linalg.matmul.self_s": (self_s("linalg.matmul"), "s"),
        "linalg.inverse.calls": (calls("linalg.inverse"), "count"),
        "linalg.inverse.self_s": (self_s("linalg.inverse"), "s"),
        "linalg.entry_bits_max": (summary["bits_max"], "bits"),
        "linalg.partition.self_s": (self_s("linalg.partition"), "s"),
        "linalg.is_commutable.self_s": (self_s("linalg.is_commutable"), "s"),
        "msn.msn_direct.calls": (calls("msn.msn_direct"), "count"),
        "msn.msn_direct.self_s": (self_s("msn.msn_direct"), "s"),
        "msn.msn_table.self_s": (self_s("msn.msn_table"), "s"),
        "msn.surjection_count.self_s": (self_s("msn.surjection_count"), "s"),
        "msn1.msn1_table.self_s": (self_s("msn1.msn1_table"), "s"),
        "series.self_s": (self_s("series"), "s"),
    }
    for code in IDENTITY_CODES:
        out[f"identities.{code}.self_s"] = (self_s(f"identities.{code}"), "s")
    other = sum(
        entry["self_s"]
        for name, entry in layers.items()
        if name.startswith("identities.") and name.split(".", 1)[1] not in IDENTITY_CODES
    )
    out["identities.other.self_s"] = (other / passes, "s")
    out["identities.cases"] = (counters.get("identities.cases", 0) / passes, "count")
    for name in ("convolved", "recursive", "closed", "scalar"):
        out[f"markov.{name}.self_s"] = (self_s(f"markov.{name}"), "s")
    out["distributions.raw_moment.self_s"] = (self_s("distributions.raw_moment"), "s")
    out["distributions.central_closed.self_s"] = (self_s("distributions.central_closed"), "s")
    out["simulate.self_s"] = (self_s("simulate"), "s")
    out["simulate.rounds"] = (counters.get("simulate.rounds", 0) / passes, "count")
    out["simulate.truncated"] = (counters.get("simulate.truncated", 0) / passes, "count")
    out["cli.run.self_s"] = (self_s("cli.run"), "s")
    return out

