"""Outside-in span recorder for the ce_dynamics layers.

Spans are recorded from the benchmark's side only: each traced function is
replaced, for the duration of a traced pass, by a wrapper at every name it is
bound under inside the package (``runner`` imports ``expected_loss`` and
``stability_check`` by name, and ``solve_stationary`` is bound separately in
``internal_dynamics``, ``swap_dynamics``, ``cli`` and the package root), so no
call site is missed. Methods are wrapped on their class. Spans stay in memory
as flat arrays and are written out once, at the end of the run.
"""

from __future__ import annotations

import os
import sys
from array import array
from time import perf_counter_ns

import numpy as np

PACKAGE = "ce_dynamics"

# (module, attribute) of every traced function; the span name is "module.attribute".
TARGETS = (
    ("cli", "main"),
    ("runner", "run_dynamics"),
    ("runner", "emit_outputs"),
    ("runner", "AdaptiveEtaController.update"),
    ("games", "expected_loss"),
    ("omwu", "Omwu.next_strategy"),
    ("omwu", "Omwu.observe"),
    ("swap_dynamics", "BmOmwu.next_strategy"),
    ("swap_dynamics", "BmOmwu.observe"),
    ("swap_dynamics", "BmOmwu.loss_decomposition_residual"),
    ("internal_dynamics", "SlOmwu.next_strategy"),
    ("internal_dynamics", "SlOmwu.observe"),
    ("internal_dynamics", "ArboDynamics.next_strategy"),
    ("internal_dynamics", "ArboDynamics.observe"),
    ("internal_dynamics", "transition_from_pairs"),
    ("internal_dynamics", "verify_equivalence"),
    ("markov_tree", "solve_stationary"),
    ("markov_tree", "check_transition_matrix"),
    ("markov_tree", "tree_theorem_stationary"),
    ("metrics", "average_product_distribution"),
    ("metrics", "external_regret"),
    ("metrics", "internal_regret"),
    ("metrics", "swap_regret"),
    ("metrics", "ce_gap"),
    ("diagnostics", "stability_check"),
    ("diagnostics", "smoothness_report"),
    ("diagnostics", "rvu_check"),
    ("diagnostics", "check_variance_inequality"),
)


# The span whose return value (the paths written) is summed into "<span>.bytes".
OUTPUT_SPAN = "runner.emit_outputs"


class SpanRecorder:
    """Records (name, parent, start, end, raised) for every call of a traced function."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("b")
        self.counters = {f"{OUTPUT_SPAN}.bytes": 0}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, fn):
        nid = len(self.names)
        self.names.append(span)
        counts_bytes = span == OUTPUT_SPAN
        stack = self._stack
        name, parent, start, end, raised = self.name, self.parent, self.start, self.end, self.raised

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            raised.append(1)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                raised[idx] = 0
                return out
            finally:
                end[idx] = perf_counter_ns()
                start[idx] = t0
                stack.pop()
                if counts_bytes and not raised[idx]:
                    self.counters[span + ".bytes"] += sum(map(os.path.getsize, out.values()))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target at every name it is bound under in the package."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module_name, attr in TARGETS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            span = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, method, self._wrap(span, cls.__dict__[method]))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def arrays(self) -> dict:
        return {
            "name": np.array(self.name, dtype=np.intc),
            "parent": np.array(self.parent, dtype=np.int64),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "raised": np.array(self.raised, dtype=np.int8),
        }

    def stats(self) -> dict:
        """Per span name: calls, busy_s, self_s, p50_us, max_ms and fail (calls that raised).

        Self time is a span's duration minus the durations of its direct
        children; the recorder runs on one thread, so children never overlap.
        """
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(float)
        nested = a["parent"] >= 0
        own = dur.copy()
        np.subtract.at(own, a["parent"][nested], dur[nested])
        out = {}
        for nid, span in enumerate(self.names):
            mask = a["name"] == nid
            d = dur[mask]
            out[span] = {
                "calls": int(mask.sum()),
                "busy_s": float(d.sum()) * 1e-9,
                "self_s": float(own[mask].sum()) * 1e-9,
                "p50_us": float(np.median(d)) * 1e-3 if d.size else 0.0,
                "max_ms": float(d.max()) * 1e-6 if d.size else 0.0,
                "fail": int(a["raised"][mask].sum()),
            }
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
