"""In-memory span recorder and the per-layer metrics derived from its spans.

Spans are recorded from the benchmark's own files: the recorder swaps each
traced library function for a wrapper at every ``modal_ent`` module binding
that refers to it, so ``modal_ent.monte_carlo.apply`` and
``modal_ent.classify.apply`` are both covered, and puts the originals back
on ``uninstall``. Nothing inside the package changes.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# The traced public functions, by defining module. Their spans are named
# ``<module>.<function>``; per-layer metric names add a ``.<stat>`` suffix.
TRACED: Dict[str, Tuple[str, ...]] = {
    "states": ("random_state", "normalize"),
    "operators": ("apply", "random_element", "sector_matrix"),
    "invariants": ("invariant_report",),
    "classify": ("canonical_form", "membership_report", "pair_projection", "chsh_value"),
    "stabilizers": ("stabilizer", "verify_stabilizes"),
    "monte_carlo": (
        "run_monotone_trials",
        "random_instrument",
        "monotonicity_trial",
        "invariance_sweep",
    ),
    "serialize": ("state_from_json", "state_to_json"),
    "maxent": ("pattern_scan",),
}

SPAN_NAMES: Tuple[str, ...] = tuple(
    f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns
)
LAYER_STATS = (("calls_per_op", "count"), ("self_us_per_op", "us"), ("us_p50", "us"))

# One span: name, start and end in ns, parent span index (-1 for a root), op id.
Span = Tuple[str, int, int, int, int]


class SpanRecorder:
    """Records nested spans of one thread; ``enabled`` pauses recording."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.enabled = True
        self.op = -1
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, Callable]] = []

    def record(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` and return its result."""
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def install(self) -> None:
        """Wrap every traced function at every package binding that holds it."""
        if self._restore:
            raise RuntimeError("recorder is already installed")
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "modal_ent"]
        for module_name, fns in TRACED.items():
            home = importlib.import_module(f"modal_ent.{module_name}")
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.record(name, fn, *args, **kwargs)

        return traced

    def write(self, path: str) -> None:
        """Write all spans as gzipped CSV, times in ns from the first span."""
        done = [s for s in self.spans if s is not None]
        origin = min((s[1] for s in done), default=0)
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start_ns", "end_ns", "parent", "op"))
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                out.writerow((index, name, start - origin, end - origin, parent, op))

    def layer_metrics(self, ops: int) -> Dict[str, float]:
        """Calls per op, self time per op and median call time of each traced function.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        durations: Dict[str, List[int]] = {name: [] for name in SPAN_NAMES}
        self_ns: Dict[str, int] = {name: 0 for name in SPAN_NAMES}
        for (name, start, end, _, _), children in zip(self.spans, child_ns):
            if name in durations:
                durations[name].append(end - start)
                self_ns[name] += end - start - children
        out: Dict[str, float] = {}
        for name in SPAN_NAMES:
            calls = durations[name]
            out[f"{name}.calls_per_op"] = len(calls) / ops
            out[f"{name}.self_us_per_op"] = self_ns[name] / 1e3 / ops
            out[f"{name}.us_p50"] = statistics.median(calls) / 1e3 if calls else 0.0
        return out

    def durations_ms(self, name: str) -> List[float]:
        return [(s[2] - s[1]) / 1e6 for s in self.spans if s[0] == name]
