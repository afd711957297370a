"""Per-layer tracing from outside the program.

:class:`Tracer` replaces every binding of the public functions of the
cprank modules, in every cprank module that holds one, with a wrapper
that records a span: name, start, end, parent span, analysis id and a
short outcome.  It also wraps ``numpy.linalg.eigh`` (a span),
``numpy.linalg.det`` (a count, inside the nnq scan only) and the
``scipy.optimize.minimize`` that rotate binds (a span, plus a count of
objective evaluations).  Spans stay in memory until the run writes them
out; :func:`layer_metrics` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np
import scipy.optimize

import environment  # noqa: F401  (pins BLAS and imports cprank)

LAYERS = ("matcore", "srfactor", "rotate", "nnq", "cones", "graphcond", "pipeline")

EIGH = "numpy.linalg.eigh"
DET = "numpy.linalg.det"
MINIMIZE = "scipy.optimize.minimize"
SCAN = "nnq.is_nnq_gram"

# time metrics: the outermost spans of these functions, per analysis
TIME_GROUPS = {
    "matcore.eigh_ms": (EIGH,),
    "nnq.scan_ms": (SCAN,),
    "nnq.factor_ms": ("nnq.nnq_factor",),
    "cones.rays_ms": ("cones.extreme_rays",),
    "cones.few_rays_ms": ("cones.few_rays_factor",),
    "rotate.search_ms": ("rotate.orthant_rotation_search",),
    "rotate.closed_form_ms": ("rotate.rowsum_condition", "rotate.rowsum_factor", "rotate.rank2_factor"),
    "srfactor.certify_ms": ("srfactor.make_certificate", "srfactor.verify_certificate"),
    "graphcond.ms": ("graphcond.cycle_necessary", "graphcond.triangle_free_criterion",
                     "graphcond.kaykobad_factor"),
    "graphcond.graph_of_ms": ("graphcond.graph_of",),
    "pipeline.report_ms": ("pipeline.write_report",),
}

# call counts per analysis
CALL_COUNTS = {
    "matcore.eigh_calls": EIGH,
    "nnq.scan_calls": SCAN,
    "cones.nnls_calls": "cones.nnls",
    "cones.few_rays_calls": "cones.few_rays_factor",
    "rotate.search_calls": "rotate.orthant_rotation_search",
    "rotate.restarts": MINIMIZE,
    "srfactor.sr_factor_calls": "srfactor.sr_factor",
}

# useful outcomes over calls: (metric, function, outcomes that count as useful)
OUTCOME_RATIOS = (
    ("nnq.found_ratio", SCAN, {"FOUND"}),
    ("cones.few_rays_cert_ratio", "cones.few_rays_factor", {"ok"}),
    ("rotate.search_success_ratio", "rotate.orthant_rotation_search", {"ok"}),
)

# every function a metric reads; a later change may delete some of them
METRIC_FUNCTIONS = sorted(
    {name for names in TIME_GROUPS.values() for name in names}
    | set(CALL_COUNTS.values())
    | {name for _, name, _ in OUTCOME_RATIOS}
    | {"pipeline.analyze"}
)


def _outcome(result) -> str:
    if result is None:
        return "none"
    status = getattr(result, "status", None)
    return status if isinstance(status, str) else "ok"


class Spans:
    """Recorded spans, one column per field; a span's id is its row, and
    a parent always has a smaller id than its children.  Columns keep a
    traced run of a few hundred thousand spans to a few tens of MB."""

    def __init__(self) -> None:
        self.parent = array("q")  # -1 for a root span
        self.analysis = array("q")
        self.name = array("H")
        self.start = array("d")  # seconds since the tracer was made
        self.end = array("d")
        self.outcome = array("H")
        self.labels: list[str] = []  # names and outcomes, by index
        self._label_index: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.name)

    def label(self, text: str) -> int:
        index = self._label_index.get(text)
        if index is None:
            index = self._label_index[text] = len(self.labels)
            self.labels.append(text)
        return index

    def open(self, parent: int, analysis: int, name: str) -> int:
        span = len(self.name)
        self.parent.append(parent)
        self.analysis.append(analysis)
        self.name.append(self.label(name))
        self.start.append(0.0)
        self.end.append(0.0)
        self.outcome.append(0)
        return span

    def rows(self):
        """``(id, parent, analysis, name, start, end, outcome)`` per span."""
        labels = self.labels
        for span in range(len(self.name)):
            yield (span, self.parent[span], self.analysis[span], labels[self.name[span]],
                   self.start[span], self.end[span], labels[self.outcome[span]])


class Tracer:
    """Records spans and counts while installed; restores every binding
    on :meth:`uninstall`."""

    def __init__(self) -> None:
        self.spans = Spans()
        self.counts: Counter[str] = Counter()
        self.analysis = -1
        self._stack: list[int] = []
        self._open: Counter[str] = Counter()
        self._t0 = time.perf_counter()
        self._plan = self._plan_patches()
        self.wrapped = {wrapper.span_name for _, _, _, wrapper in self._plan}

    def _plan_patches(self) -> list[tuple[object, str, object, object]]:
        """``(owner, attribute, original, wrapper)`` for every binding to replace."""
        targets: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = sys.modules[f"cprank.{layer}"]
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    targets[id(fn)] = (fn, self._spanned(f"{layer}.{attr}", fn))
        fn = scipy.optimize.minimize
        targets[id(fn)] = (fn, self._minimize(fn))
        plan = []
        for name, module in sorted(sys.modules.items()):
            if module is None or not (name == "cprank" or name.startswith("cprank.")):
                continue
            for attr, value in vars(module).items():
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    plan.append((module, attr, value, hit[1]))
        eigh, det = np.linalg.eigh, np.linalg.det
        plan.append((np.linalg, "eigh", eigh, self._spanned(EIGH, eigh)))
        plan.append((np.linalg, "det", det, self._counted_within(DET, det, SCAN, "nnq.subsets_scanned")))
        return plan

    def install(self) -> None:
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._plan:
            setattr(owner, attr, original)

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            span = spans.open(self._stack[-1] if self._stack else -1, self.analysis, name)
            self._stack.append(span)
            self._open[name] += 1
            start = time.perf_counter()
            outcome = "raise"
            try:
                result = fn(*args, **kwargs)
                outcome = _outcome(result)
                return result
            finally:
                end = time.perf_counter()
                self._open[name] -= 1
                self._stack.pop()
                spans.start[span] = start - self._t0
                spans.end[span] = end - self._t0
                spans.outcome[span] = spans.label(outcome)

        wrapper.span_name = name
        return wrapper

    def _counted_within(self, name: str, fn, within: str, counter: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._open[within]:
                self.counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.span_name = name
        return wrapper

    def _minimize(self, fn):
        def counting(objective):
            @functools.wraps(objective)
            def evaluate(*args, **kwargs):
                self.counts["rotate.objective_evals"] += 1
                return objective(*args, **kwargs)

            return evaluate

        spanned = self._spanned(MINIMIZE, fn)

        @functools.wraps(fn)
        def wrapper(fun, *args, **kwargs):
            return spanned(counting(fun), *args, **kwargs)

        wrapper.span_name = MINIMIZE
        return wrapper


def layer_metrics(tracer: Tracer, analyses: int,
                  scale: list[float]) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics from the spans of ``analyses`` traced analyses,
    as ``{name: (value, unit)}``, and the metric functions that no longer
    exist.  A span's duration is multiplied by ``scale[analysis id]``.
    Times are per-analysis means in ms and, as ``*_share``, a share of
    the ``analyze`` span; counts are per analysis.  A ratio with
    no attempts, or a metric whose functions no longer exist, reads 0."""
    spans = tracer.spans
    per = max(analyses, 1)
    groups = {"pipeline.analyze_ms": ("pipeline.analyze",), **TIME_GROUPS}
    bits = {metric: 1 << k for k, metric in enumerate(groups)}
    bits_of_name: dict[str, int] = defaultdict(int)
    for metric, names in groups.items():
        for name in names:
            bits_of_name[name] |= bits[metric]
    bits_of_label = [bits_of_name.get(label, 0) for label in spans.labels]

    # parents come before their children, so one pass in id order knows
    # which groups each span is nested in
    inside = array("q", bytes(8 * len(spans)))
    child_seconds = array("d", bytes(8 * len(spans)))
    seconds: Counter[str] = Counter()
    outcomes: dict[str, Counter[str]] = defaultdict(Counter)
    self_seconds = 0.0
    for span in range(len(spans)):
        parent, label = spans.parent[span], spans.name[span]
        duration = (spans.end[span] - spans.start[span]) * scale[spans.analysis[span]]
        if parent >= 0:
            inside[span] = inside[parent] | bits_of_label[spans.name[parent]]
            child_seconds[parent] += duration
        own = bits_of_label[label]
        if own:
            for metric, bit in bits.items():
                if own & bit and not inside[span] & bit:
                    seconds[metric] += duration
        outcomes[spans.labels[label]][spans.labels[spans.outcome[span]]] += 1
    for span in range(len(spans)):
        if spans.labels[spans.name[span]] == "pipeline.analyze":
            duration = (spans.end[span] - spans.start[span]) * scale[spans.analysis[span]]
            self_seconds += duration - child_seconds[span]

    metrics: dict[str, tuple[float, str]] = {}
    analyze_ms = 1e3 * seconds["pipeline.analyze_ms"] / per
    metrics["pipeline.analyze_ms"] = (analyze_ms, "ms")
    times = {"pipeline.self_ms": 1e3 * self_seconds / per}
    times.update({metric: 1e3 * seconds[metric] / per for metric in TIME_GROUPS})
    for metric, value in times.items():
        metrics[metric] = (value, "ms")
        metrics[metric[:-2] + "share"] = (value / analyze_ms if analyze_ms else 0.0, "ratio")
    for metric, name in CALL_COUNTS.items():
        metrics[metric] = (sum(outcomes[name].values()) / per, "count")
    for counter in ("nnq.subsets_scanned", "rotate.objective_evals"):
        metrics[counter] = (tracer.counts[counter] / per, "count")
    for metric, name, useful in OUTCOME_RATIOS:
        calls = sum(outcomes[name].values())
        hits = sum(count for outcome, count in outcomes[name].items() if outcome in useful)
        metrics[metric] = (hits / calls if calls else 0.0, "ratio")
    absent = [name for name in METRIC_FUNCTIONS if name not in tracer.wrapped]
    return metrics, absent
