"""Outside-in tracing of the dcqe layers.

A traced run rebinds the public names that callers look up (for example
``dcqe.experiments.match_pairs`` or ``dcqe.causal.logistic_fit``) to thin
wrappers that record one span per call: name, start, end, parent span and
scenario id. Spans stay in memory until the benchmark ends. Leaving the
``installed`` block binds every name to its original object again, so
untraced calls never pay for a wrapper.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# Functions timed as spans, named "<module>.<function>" inside the dcqe package.
TRACED = (
    "experiments.run_scenario",
    "datamodel.partition",
    "collaboration.generate_anchor",
    "collaboration.make_intermediate",
    "collaboration.fit_integration",
    "collaboration.assemble_collaborative",
    "numerics.pca_fit",
    "numerics.svd_truncated",
    "numerics.pseudoinverse",
    "numerics.logistic_fit",
    "causal.estimate_propensity",
    "causal.match_pairs",
    "causal.estimate_psm",
    "causal.matched_sample",
    "causal.estimate_ipw",
    "causal.ipw_weights",
    "metrics.smd",
    "metrics.inconsistency",
    "tabular.load_party_files",
    "cli.emit_report",
)
# Functions only counted: called so often on small arrays that a span each
# would distort their callers' self time.
COUNTED = ("numerics.ensure_matrix",)

# The span around one whole main call of a workload; its self time is the
# time spent outside every traced function.
ROOT = "workload"
SCENARIO = "experiments.run_scenario"
IRLS = "numerics.logistic_fit"

# Span record fields, kept as lists for cheap recording.
NAME, START, END, PARENT, SCENARIO_ID = range(5)


class Tracer:
    """In-memory span and count recorder for one benchmark run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._scenario: int | None = None
        self._scenarios = 0

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        previous = self._scenario
        if name == SCENARIO:
            self._scenario = self._scenarios
            self._scenarios += 1
        span = [name, 0.0, 0.0, self._open[-1] if self._open else None, self._scenario]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[END] = perf_counter()
            self._open.pop()
            self._scenario = previous

    def _wrap(self, name: str, fn):
        if name in COUNTED:
            key = f"{name}.calls"

            def wrapper(*args, **kwargs):
                self.counts[key] += 1
                return fn(*args, **kwargs)
        elif name == IRLS:
            def wrapper(*args, **kwargs):
                model = self.call(name, fn, *args, **kwargs)
                self.counts[f"{IRLS}.iters"] += model.n_iter
                self.counts[f"{IRLS}.nonconverged"] += not model.converged
                return model
        else:
            def wrapper(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
        return functools.update_wrapper(wrapper, fn)

    @contextmanager
    def installed(self):
        """Bind every traced and counted name, wherever a dcqe module holds it, to a wrapper."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "dcqe" or key.startswith("dcqe.")]
        bound = []
        try:
            for name in TRACED + COUNTED:
                module, function = name.split(".")
                original = getattr(importlib.import_module(f"dcqe.{module}"), function)
                wrapper = self._wrap(name, original)
                for holder in modules:
                    for attr in [a for a, v in vars(holder).items() if v is original]:
                        setattr(holder, attr, wrapper)
                        bound.append((holder, attr, original))
            yield self
        finally:
            for holder, attr, original in reversed(bound):
                setattr(holder, attr, original)


def nesting_problems(spans) -> list[str]:
    """Ways in which recorded spans fail to form single-threaded call trees.

    Each span must have a known name, end after it starts, lie inside its
    parent (recorded before it) and start after its previous sibling ends.
    Only the root span of a main call may have no parent.
    """
    found = []
    sibling_end: dict = {}
    for index, span in enumerate(spans):
        name, start, end, parent = span[NAME], span[START], span[END], span[PARENT]
        if name not in TRACED and name != ROOT:
            found.append(f"span {index} has an unknown name {name!r}")
        if end < start:
            found.append(f"span {index} ({name}) ends before it starts")
        if parent is None:
            if name != ROOT:
                found.append(f"span {index} ({name}) has no parent")
        elif not 0 <= parent < index:
            found.append(f"span {index} ({name}) names parent {parent}, not an earlier span")
        elif start < spans[parent][START] or end > spans[parent][END]:
            found.append(f"span {index} ({name}) lies outside its parent span {parent}")
        if start < sibling_end.get(parent, start):
            found.append(f"span {index} ({name}) overlaps its previous sibling")
        sibling_end[parent] = end
    return found


def self_times(spans) -> dict[str, float]:
    """Total self time per span name, in seconds.

    A span's self time is its duration minus the durations of its child
    spans. For spans that pass ``nesting_problems`` it is never negative,
    and the self times add up to the durations of the root spans.
    """
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span[NAME]] += span[END] - span[START]
        if span[PARENT] is not None:
            totals[spans[span[PARENT]][NAME]] -= span[END] - span[START]
    return dict(totals)


def span_counts(spans) -> Counter:
    """Number of spans per name."""
    return Counter(span[NAME] for span in spans)
