"""Spans and counts at cnifkit's layer boundaries, recorded from outside.

``Tracer.install`` replaces public functions of the package's modules with
wrappers, at every module attribute that holds them, so names rebound by
``from .indicators import cnif`` (``ranking.cnif``, ``cli.validate``, ...)
are traced too.  A span is ``[name, start, end, parent]``; spans stay in
memory until ``write_spans``.  Tiny leaf functions are counted, not timed.
The layer metrics are derived from the spans and counts of one pass.
"""
from __future__ import annotations

import importlib
import json
from bisect import bisect_left
from collections import Counter
from contextlib import contextmanager
from itertools import accumulate
from time import perf_counter

from workloads import CLI_COMMANDS

MODULES = ("core_model", "indicators", "ingest", "ranking", "stats", "cli")


def _rows_parsed(tracer, args, result):
    tracer.counts["ingest.rows_parsed"] += len(result.journals)


def _bytes_emitted(tracer, args, result):
    tracer.counts["ingest.bytes_emitted"] += len(result.encode("utf-8"))


def _members_scanned(tracer, args, result):
    tracer.counts["core_model.members_rows_scanned"] += len(args[0].journals)


def _jcr_needed(tracer, args, result):
    tracer.command_jcr = True


def _meta_set(tracer, args, result):
    tracer.command_sets.add(frozenset(args[1]))


def _ward_pairs(tracer, args, result):
    # The current algorithm's cost for n leaves, not an observed count (the
    # pair scan is inline in ward_cluster): active pairs scanned, summed over
    # merges, sum of m(m-1)/2 for m = n..2.  A rewrite of Ward updates this.
    n = len(args[0])
    tracer.counts["stats.ward_pair_evals"] += (n + 1) * n * (n - 1) // 6


# (module, attribute, timed?, hook).  "Dataset.members" is a method.
TARGETS = (
    ("ingest", "parse_journals_csv", True, _rows_parsed),
    ("ingest", "parse_category_fixture_csv", True, None),
    ("ingest", "emit_report", True, None),
    ("ingest", "dumps_report", False, _bytes_emitted),
    ("core_model", "validate", True, None),
    ("core_model", "Dataset.members", True, _members_scanned),
    ("indicators", "cnif", True, None),
    ("indicators", "jcr_aggregate", True, _jcr_needed),
    ("indicators", "meta_category_aggregate", True, _meta_set),
    ("indicators", "category_aggregate", True, None),
    ("indicators", "components", True, None),
    ("indicators", "impact_factor", False, None),
    ("ranking", "rank_category", True, None),
    ("ranking", "compare_gaps", True, None),
    ("stats", "correlation_matrix", True, None),
    ("stats", "symmetric_eigendecomposition", True, None),
    ("stats", "pca_variance_shares", True, None),
    ("stats", "ward_cluster", True, _ward_pairs),
    ("stats", "cut_dendrogram", True, None),
    ("stats", "ks_normality", True, None),
    ("stats", "histogram_by_sd", True, None),
)

# layer metric -> (kind, span or counter name, unit, better)
LAYER_METRICS = {
    "ingest.parse_journals_s": ("incl", "ingest.parse_journals_csv", "s", "lower"),
    "ingest.rows_parsed": ("count", "ingest.rows_parsed", "count", "lower"),
    "ingest.parse_fixture_s": ("incl", "ingest.parse_category_fixture_csv", "s", "lower"),
    "ingest.emit_report_s": ("incl", "ingest.emit_report", "s", "lower"),
    "ingest.bytes_emitted": ("count", "ingest.bytes_emitted", "bytes", "lower"),
    "core_model.validate_s": ("incl", "core_model.validate", "s", "lower"),
    "core_model.members_calls": ("count", "core_model.Dataset.members", "count", "lower"),
    "core_model.members_s": ("incl", "core_model.Dataset.members", "s", "lower"),
    "core_model.members_rows_scanned": ("count", "core_model.members_rows_scanned", "count", "lower"),
    "indicators.cnif_calls": ("count", "indicators.cnif", "count", "lower"),
    "indicators.cnif_s": ("incl", "indicators.cnif", "s", "lower"),
    "indicators.jcr_aggregate_calls": ("count", "indicators.jcr_aggregate", "count", "lower"),
    "indicators.jcr_aggregate_useful_ratio": ("ratio", "indicators.jcr_aggregate", "ratio", "higher"),
    "indicators.meta_aggregate_calls": ("count", "indicators.meta_category_aggregate", "count", "lower"),
    "indicators.meta_aggregate_useful_ratio": (
        "ratio", "indicators.meta_category_aggregate", "ratio", "higher"),
    "indicators.category_aggregate_calls": ("count", "indicators.category_aggregate", "count", "lower"),
    "indicators.category_aggregate_s": ("incl", "indicators.category_aggregate", "s", "lower"),
    "indicators.components_s": ("incl", "indicators.components", "s", "lower"),
    "indicators.impact_factor_calls": ("count", "indicators.impact_factor", "count", "lower"),
    "ranking.rank_category_calls": ("count", "ranking.rank_category", "count", "lower"),
    "ranking.rank_category_self_s": ("self", "ranking.rank_category", "s", "lower"),
    "ranking.compare_gaps_self_s": ("self", "ranking.compare_gaps", "s", "lower"),
    "stats.ward_cluster_s": ("incl", "stats.ward_cluster", "s", "lower"),
    "stats.ward_pair_evals": ("count", "stats.ward_pair_evals", "count", "lower"),
    "stats.eigen_s": ("incl", "stats.symmetric_eigendecomposition", "s", "lower"),
    "stats.correlation_s": ("incl", "stats.correlation_matrix", "s", "lower"),
    "stats.ks_s": ("incl", "stats.ks_normality", "s", "lower"),
    "stats.histogram_s": ("incl", "stats.histogram_by_sd", "s", "lower"),
    **{
        f"cli.{c}.self_s": ("self", f"cli.{c}", "s", "lower")
        for c in CLI_COMMANDS
    },
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # per-command state for the useful-work ratios
        self.command_jcr = False
        self.command_sets: set[frozenset] = set()

    def _wrap(self, fn, name: str, timed: bool, hook):
        counts, spans, stack = self.counts, self.spans, self._stack

        if not timed:
            def counted(*args, **kwargs):
                counts[name] += 1
                result = fn(*args, **kwargs)
                if hook:
                    hook(self, args, result)
                return result
            return counted

        def traced(*args, **kwargs):
            counts[name] += 1
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if hook:
                hook(self, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at each module attribute that holds it."""
        modules = [importlib.import_module(f"cnifkit.{m}") for m in MODULES]
        modules.append(importlib.import_module("cnifkit"))
        for module, attr, timed, hook in TARGETS:
            name = f"{module}.{attr}"
            owner = importlib.import_module(f"cnifkit.{module}")
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                self._patch(owner, attr, self._wrap(getattr(owner, attr), name, timed, hook))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name, timed, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def command(self, cli_name: str):
        """A span around one CLI command; closes the per-command useful-work tallies."""
        name = f"cli.{cli_name}"
        self.command_jcr = False
        self.command_sets = set()
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            self.spans[idx][2] = perf_counter()
            self.spans[idx][1] = start
            self._stack.pop()
            self.counts["indicators.jcr_aggregate.needed"] += int(self.command_jcr)
            self.counts["indicators.meta_category_aggregate.needed"] += len(self.command_sets)

    def span_times(self, probe_samples=()) -> tuple[Counter, Counter]:
        """Inclusive and self time per span name.

        A span's duration leaves out the ``(start, duration)`` probe samples
        that start inside it, as the end-to-end times do.  Inclusive time
        skips a span nested in one of the same name, so that recursion is not
        counted twice; self time is the duration minus the durations of the
        span's children.
        """
        starts = [s for s, _ in probe_samples]
        probe_before = list(accumulate((d for _, d in probe_samples), initial=0.0))

        def net(start: float, end: float) -> float:
            inside = probe_before[bisect_left(starts, end)] - probe_before[bisect_left(starts, start)]
            return end - start - inside

        durations = [net(start, end) for _, start, end, _ in self.spans]
        incl: Counter = Counter()
        child: Counter = Counter()
        for idx, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += durations[idx]
        self_t: Counter = Counter()
        for idx, (name, start, end, parent) in enumerate(self.spans):
            self_t[name] += durations[idx] - child[idx]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                incl[name] += durations[idx]
        return incl, self_t

    def layer_metrics(self, probe_samples=()) -> dict[str, float]:
        incl, self_t = self.span_times(probe_samples)
        out: dict[str, float] = {}
        for metric, (kind, key, _unit, _better) in LAYER_METRICS.items():
            if kind == "incl":
                out[metric] = incl[key]
            elif kind == "self":
                out[metric] = self_t[key]
            elif kind == "count":
                out[metric] = self.counts[key]
            else:  # useful calls over calls; no call wastes nothing
                calls = self.counts[key]
                out[metric] = self.counts[f"{key}.needed"] / calls if calls else 1.0
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, f)
