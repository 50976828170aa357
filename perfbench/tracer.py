"""Per-layer spans and counts, recorded by wrapping qfikit from outside.

The wrappers replace public functions of the six qfikit modules, and every
module attribute bound to the same function object, since `cli` imports
functions by name. Each call records a span (name, start, end, parent,
amount, thread) in memory. A layer's self time is its span duration minus
the part of that interval its child spans cover. A target that no longer
exists in the program is skipped, and its metrics are left out.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict


def _steps(args, kwargs, result):
    return result.grid.N


def _matrices(args, kwargs, result):
    a = args[0]
    return a.shape[0] if a.ndim == 3 else 1


def _channel_rows(args, kwargs, result):
    return len(args[0].kraus)


def _result_rows(args, kwargs, result):
    return len(result.kraus)


_ENCODING = ("efg", "complete_report", "amplification_report",
             "fix_perpendicular_gauge", "check_lossless_perp", "check_lossless_generic")

#: (module, attribute, amount) of every function wrapped with a span.
#: ``amount`` maps (args, kwargs, result) to the work a call did.
FUNCTIONS = (
    [("collision", "propagate", _steps),
     ("collision", "expm", _matrices)]
    + [("collision", name, None) for name in (
        "nh_loss", "efg_integrals", "check_theorem2",
        "discrete_channel_derivatives", "check_integral_completeness")]
    + [("collision", "build_discrete_channel", _result_rows)]
    + [("encoding", name, _channel_rows) for name in _ENCODING]
    + [("quantum_core", "kraus_from_dilation", None),
       ("quantum_core", "mixed_state", None),
       ("fisher", "sld", None),
       ("fisher", "sigma_se_qfi", None)]
    + [("scenarios", name, None) for name in (
        "build_transducer", "fig1b_sweep", "build_dephasing", "random_family")]
    + [("cli", name, None) for name in (
        "parse_config", "execute", "report_json", "report_csv", "main")]
)

#: bindings wrapped only in their own module: `collision.expm` is scipy's
#: expm as collision uses it, not every module's expm
_LOCAL_ONLY = {("collision", "expm")}


class Tracer:
    """Span and count recorder for one process.

    Spans from a thread pool's workers start with an empty stack of their
    own; they take the innermost open span of the thread that installed
    the tracer as their parent, so that `cli.main` covers its sweep jobs.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.absent = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        if stack is not self._main_stack and self._main_stack:
            return self._main_stack[-1]
        return None

    def span(self, name: str, fn, amount=None):
        """Wrap ``fn`` so each call records a span named ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            record = [name, time.perf_counter(), None, self._parent(stack), 0,
                      threading.get_ident()]
            with self._lock:
                index = len(self.spans)
                self.spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if amount is not None:
                    record[4] = amount(args, kwargs, result)
                return result
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def counter(self, name: str, fn):
        """Wrap ``fn`` so each call only adds one to ``counts[name]``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package: str = "qfikit") -> None:
        """Wrap every target of the already imported ``package``."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for mod_name, attr, amount in FUNCTIONS:
            module = sys.modules.get(f"{package}.{mod_name}")
            name = f"{mod_name}.{attr}"
            original = getattr(module, attr, None)
            if original is None:
                self.absent.add(name)
                continue
            wrapped = self.span(name, original, amount)
            targets = [module] if (mod_name, attr) in _LOCAL_ONLY else modules
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapped)
        core = sys.modules.get(f"{package}.quantum_core")
        for cls_name, wrap in (("Operator", self.counter), ("MeasurementChannel", self.span)):
            cls = getattr(core, cls_name, None)
            hook = getattr(cls, "__post_init__", None)
            if hook is None:
                self.absent.add(f"quantum_core.{cls_name}")
                continue
            cls.__post_init__ = wrap(f"quantum_core.{cls_name}", hook)

    def take(self) -> tuple:
        """Hand over the spans and counts so far and start afresh."""
        with self._lock:
            spans, counts = self.spans, dict(self.counts)
            self.spans = []
            self.counts.clear()
        return spans, counts


def self_times(spans: list) -> list:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def _aggregate(spans: list) -> dict:
    """Per span name: [calls, self seconds, inclusive seconds, amount]."""
    stats = defaultdict(lambda: [0, 0.0, 0.0, 0])
    for (name, start, end, _, amount, _), own in zip(spans, self_times(spans)):
        row = stats[name]
        row[0] += 1
        row[1] += own
        row[2] += end - start
        row[3] += amount
    return stats


#: every span target reports its self time
_SELF_S = [f"{m}.{a}" for m, a, _ in FUNCTIONS] + ["quantum_core.MeasurementChannel"]
_CALLS = (["collision.propagate"] + [f"encoding.{n}" for n in _ENCODING]
          + ["fisher.sld", "fisher.sigma_se_qfi", "scenarios.build_transducer",
             "cli.execute"])

#: (metric, unit, better, span names it reads, value from their stats)
PER_LAYER = (
    [(f"{t}.self_s", "s", "lower", (t,), lambda s: s[0][1]) for t in _SELF_S]
    + [(f"{t}.calls", "count", "lower", (t,), lambda s: s[0][0]) for t in _CALLS]
    + [
        ("collision.propagate.steps", "count", "lower", ("collision.propagate",),
         lambda s: s[0][3]),
        ("collision.propagate.steps_per_s", "1/s", "higher", ("collision.propagate",),
         lambda s: s[0][3] / s[0][2] if s[0][2] else 0.0),
        ("collision.expm.matrices", "count", "lower", ("collision.expm",),
         lambda s: s[0][3]),
        ("collision.kraus_rows", "count", "lower",
         ("collision.build_discrete_channel",), lambda s: s[0][3]),
        ("encoding.rows", "count", "lower", tuple(f"encoding.{n}" for n in _ENCODING),
         lambda s: sum(row[3] for row in s)),
        ("quantum_core.MeasurementChannel.constructed", "count", "lower",
         ("quantum_core.MeasurementChannel",), lambda s: s[0][0]),
        ("quantum_core.Operator.constructed", "count", "lower",
         ("quantum_core.Operator",), lambda s: s[0][0]),
    ]
)


def layer_metrics(spans: list, counts: dict, absent: set) -> dict:
    """Every per-layer metric whose targets exist, from one round's record."""
    stats = _aggregate(spans)
    for name, calls in counts.items():
        stats[name][0] += calls
    out = {}
    for name, _, _, targets, value in PER_LAYER:
        if not absent.intersection(targets):
            out[name] = value([stats[t] for t in targets])
    return out


#: unit of every per-layer metric, in the order they are reported
UNITS = {name: unit for name, unit, *_ in PER_LAYER}
