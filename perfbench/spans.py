"""Spans around calls into the package's public functions.

The traced run installs wrappers from here; nothing under ``src/`` changes.
A span is (name, start, end, parent, extra) with times from
``perf_counter_ns``. Spans stay in memory and are written once, at the end
of a phase. A recursive function is wrapped so that only its outermost call
passes through the wrapper: while it runs, the module attribute points back
at the original. Helpers that the evaluators call (extract, parse, canon,
check) are recorded only under an ``evaluate.*`` span, so the same helpers
running inside enumeration or scoring cost no span.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def reset(self):
        self.spans = []
        self._stack = []

    def _open(self, name, extra=None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), 0, parent, extra])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = _now()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, extra=None):
        """Record a span around a block; yields the span's list."""
        index = self._open(name, extra)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def _under_evaluate(self) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]][0].startswith("evaluate.")

    def wrap(self, owner, attr, name, *, helper=False, recursive=False,
             extra_in=None, extra_out=None):
        """Replace ``owner.attr`` by a recording wrapper.

        ``extra_in(args, kwargs)`` and ``extra_out(result)`` fill the span's
        extra field before and after the call.
        """
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if recursive:
                setattr(owner, attr, original)
            try:
                if helper and not self._under_evaluate():
                    return original(*args, **kwargs)
                extra = extra_in(args, kwargs) if extra_in else None
                index = self._open(name, extra)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._close(index)
                if extra_out:
                    self.spans[index][4] = extra_out(result)
                return result
            finally:
                if recursive:
                    setattr(owner, attr, wrapper)

        setattr(owner, attr, wrapper)
        return wrapper

    # --- summaries -------------------------------------------------------

    def durations(self, name) -> list[int]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> dict[str, tuple[int, int, int]]:
        """name -> (calls, total ns, self ns)."""
        child_ns = defaultdict(int)
        for s in self.spans:
            if s[3] >= 0:
                child_ns[s[3]] += s[2] - s[1]
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        for index, s in enumerate(self.spans):
            row = out[s[0]]
            row[0] += 1
            row[1] += s[2] - s[1]
            row[2] += s[2] - s[1] - child_ns[index]
        return {name: tuple(row) for name, row in out.items()}

    def write(self, path):
        """Write every span to ``path`` and, per name, calls, total and self
        time to ``path`` with ``.self.tsv`` in place of ``.tsv``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\textra\n")
            for s in self.spans:
                fh.write(f"{s[0]}\t{s[1]}\t{s[2]}\t{s[3]}\t{'' if s[4] is None else s[4]}\n")
        rows = sorted(self.self_times().items(), key=lambda kv: -kv[1][2])
        with open(path[:-len(".tsv")] + ".self.tsv", "w", encoding="utf-8") as fh:
            fh.write("name\tcalls\ttotal_ms\tself_ms\n")
            for name, (calls, total, own) in rows:
                fh.write(f"{name}\t{calls}\t{total / 1e6:.3f}\t{own / 1e6:.3f}\n")


def median_us(values_ns) -> float:
    return statistics.median(values_ns) / 1e3 if values_ns else 0.0


def seconds(values_ns) -> float:
    return sum(values_ns) / 1e9


def install(tracer: Tracer):
    """Wrap every public function the per-layer metrics are taken from."""
    from hyposet import boolexpr, causal, cli, harness, metrics, tasks, voxel

    for task_name, task in tasks.TASKS.items():
        tracer.wrap(task, "generate", f"gen.{task_name}")
        tracer.wrap(task, "evaluate_text", f"evaluate.{task_name}")
        tracer.wrap(task, "admissible_keys", "score.admissible_keys")
    tracer.wrap(causal, "enumerate_admissible_dags", "enum.causal", extra_out=len)
    enumerate_exprs = boolexpr.enumerate_exprs
    cache_info = boolexpr._enumerate.cache_info

    def enum_bool(*args, **kwargs):
        """The span's extra holds the forms built, or 0 on a cache hit."""
        misses = cache_info().misses
        with tracer.span("enum.bool") as span:
            result = enumerate_exprs(*args, **kwargs)
        span[4] = len(result) if cache_info().misses > misses else 0
        return result

    boolexpr.enumerate_exprs = enum_bool
    tracer.wrap(boolexpr, "filter_consistent", "filter.bool")

    tracer.wrap(tasks, "extract_marked_lines", "extract", helper=True)
    for owner, attr, name, recursive in (
        (causal, "parse_edges", "parse.causal", False),
        (voxel, "parse_layers", "parse.voxel", False),
        (boolexpr, "parse_expr", "parse.bool", False),
        (causal, "canon_edge_pairs", "canon.causal", False),
        (voxel, "canon_stack", "canon.voxel", False),
        (boolexpr, "canon_expr", "canon.bool", True),
        (causal, "dag_from_edge_labels", "check.causal", False),
        (causal, "validate_dag", "check.causal", False),
        (voxel, "check_gravity", "check.voxel", False),
        (voxel, "project", "check.voxel", False),
        (boolexpr, "validate_expr", "check.bool", False),
    ):
        tracer.wrap(owner, attr, name, helper=True, recursive=recursive)

    tracer.wrap(metrics, "make_record", "score.record", extra_in=lambda a, k: a[0])
    tracer.wrap(metrics, "score_run", "score.score_run")
    tracer.wrap(metrics, "creativity_measures", "score.creativity")
    tracer.wrap(metrics, "info_gain_series", "entropy")
    tracer.wrap(metrics, "aggregate", "aggregate")

    tracer.wrap(harness, "run_instance", "run_instance",
                extra_in=lambda a, k: k.get("n_override"))
    tracer.wrap(harness.OracleSampler, "next_proposal", "sampler.oracle")
    tracer.wrap(harness.RandomValidSampler, "next_proposal", "sampler.random")
    tracer.wrap(harness, "render_prompt", "render_prompt", extra_out=len)
    tracer.wrap(harness, "send_chat", "send_chat")

    load_log = tracer.wrap(harness, "load_log", "readback.load_log")
    cli.load_log = load_log
    tracer.wrap(tasks, "load_instance", "readback.load_instance")
    tracer.wrap(harness, "rescore_log", "readback.rescore")
    tracer.wrap(cli, "cmd_report", "readback.report")


TASK_NAMES = ("causal", "voxel", "bool")


def setup_metrics(tracer: Tracer) -> dict:
    out = {}
    for task in TASK_NAMES:
        out[f"gen.{task}.s"] = seconds(tracer.durations(f"gen.{task}"))
    enum_causal = [s for s in tracer.spans if s[0] == "enum.causal"]
    causal_s = seconds([s[2] - s[1] for s in enum_causal])
    out["enum.causal.s"] = causal_s
    out["enum.causal.dags_per_s"] = sum(s[4] for s in enum_causal) / causal_s if causal_s else 0.0
    enum_bool = [s for s in tracer.spans if s[0] == "enum.bool"]
    bool_s = seconds([s[2] - s[1] for s in enum_bool])
    built = [s for s in enum_bool if s[4]]
    built_s = seconds([s[2] - s[1] for s in built])
    out["enum.bool.s"] = bool_s
    out["enum.bool.forms_per_s"] = sum(s[4] for s in built) / built_s if built_s else 0.0
    out["filter.bool.s"] = seconds(tracer.durations("filter.bool"))
    out["instance_json.s"] = seconds(tracer.durations("instance_json"))
    return out


def _children_by_kind(tracer: Tracer, parent_name: str):
    """For each span named parent_name: {child name: summed ns}."""
    parents = {i: {} for i, s in enumerate(tracer.spans) if s[0] == parent_name}
    for s in tracer.spans:
        sums = parents.get(s[3])
        if sums is not None:
            sums[s[0]] = sums.get(s[0], 0) + s[2] - s[1]
    return list(parents.values())


def run_metrics(tracer: Tracer, rounds: int) -> dict:
    out = {}
    calls = 0
    extract = []
    for task in TASK_NAMES:
        evaluate = tracer.durations(f"evaluate.{task}")
        calls += len(evaluate)
        out[f"evaluate.{task}.us"] = median_us(evaluate)
        children = _children_by_kind(tracer, f"evaluate.{task}")
        extract.extend(c["extract"] for c in children if "extract" in c)
        for kind in ("parse", "canon", "check"):
            name = f"{kind}.{task}"
            out[f"{name}.us"] = median_us([c[name] for c in children if name in c])
    out["evaluate.calls"] = calls / rounds
    out["extract.us"] = median_us(extract)

    runs = {i: s[4] for i, s in enumerate(tracer.spans) if s[0] == "run_instance"}
    first, last = [], []
    for s in tracer.spans:
        if s[0] == "score.record" and s[3] in runs:
            n = runs[s[3]]
            tenth = max(1, n // 10)
            if s[4] <= tenth:
                first.append(s[2] - s[1])
            elif s[4] > n - tenth:
                last.append(s[2] - s[1])
    out["score.record.us.first_decile"] = median_us(first)
    out["score.record.us.last_decile"] = median_us(last)
    summary = [
        s[2] - s[1]
        for s in tracer.spans
        if s[0] in ("score.score_run", "score.creativity", "score.admissible_keys")
        and s[3] in runs
    ]
    out["score.summary.s"] = seconds(summary) / rounds
    out["sampler.oracle.us"] = median_us(tracer.durations("sampler.oracle"))
    out["sampler.random.us"] = median_us(tracer.durations("sampler.random"))
    prompts = [s for s in tracer.spans if s[0] == "render_prompt"]
    out["render_prompt.us"] = median_us([s[2] - s[1] for s in prompts])
    out["prompt.kb"] = statistics.median(s[4] for s in prompts) / 1024 if prompts else 0.0
    out["send_chat.ms"] = median_us(tracer.durations("send_chat")) / 1e3
    return out


def readback_metrics(tracer: Tracer) -> dict:
    out = {
        "readback.load_log.s": seconds(tracer.durations("readback.load_log")),
        "readback.load_instance.s": seconds(tracer.durations("readback.load_instance")),
        "entropy.s": seconds(tracer.durations("entropy")),
        "aggregate.s": seconds(tracer.durations("aggregate")),
    }
    for name in ("readback.rescore", "readback.report"):
        children = _children_by_kind(tracer, name)
        total = tracer.durations(name)
        loads = sum(
            c.get("readback.load_log", 0) + c.get("readback.load_instance", 0)
            for c in children
        )
        out[f"{name}.s"] = (sum(total) - loads) / 1e9
    return out
