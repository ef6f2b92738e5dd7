"""Scoring and analysis: validity/uniqueness/recovery, coverage curves,
failure-mode decomposition, empirical-posterior creativity measures, and
entropy/information-gain series.

Definitions over a run of N ordered proposals against an enumerated
admissible set H:

* validity rate   VR = #valid / N
* uniqueness rate NR = #novel / N   (order-respecting, all proposals)
* recovery rate   RR = #(valid and novel, canonical form in H) / |H|

Every proposal has a comparison key: its canonical form when the emission
parses, its exact raw text otherwise. A valid proposal is novel iff no
earlier valid proposal has its canonical form; any other proposal is novel
iff no earlier proposal shares its comparison key. So an out-of-space or
invalid emission never uses up the novelty of a valid hypothesis, RR equals
coverage (the fraction of H hit by distinct valid canonical forms) in every
run, and RR <= NR. Each proposal lands in exactly one failure category,
resolved in this precedence order: parse_failure, constraint_violation,
invalid, duplicate_exact (valid, not novel, raw text seen before),
duplicate_canonical, valid_novel.

RunScorer holds a run's running state: classifying a proposal costs O(1)
whatever came before, and closing the run needs no second pass over the
records. The module-level functions are thin uses of it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

CATEGORIES = (
    "parse_failure",
    "constraint_violation",
    "invalid",
    "duplicate_exact",
    "duplicate_canonical",
    "valid_novel",
)

TASK_ORDER = ("causal", "voxel", "bool")


@dataclass(frozen=True)
class TextEvaluation:
    """Outcome of checking one emission against an instance, before novelty.

    ``canonical`` is present whenever the text parses, including for
    constraint violations; ``valid`` means consistency with the observations.
    """

    canonical: str | None = None
    parse_error: str | None = None
    constraint_error: str | None = None
    valid: bool = False


@dataclass(frozen=True)
class ProposalRecord:
    """One scored emission."""

    index: int
    raw_text: str
    parsed: str | None
    category: str
    valid: int
    novel: int

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")
        if (self.category == "valid_novel") != bool(self.valid and self.novel):
            raise ValueError("valid_novel must coincide with valid=1 and novel=1")
        if self.category == "parse_failure" and self.parsed is not None:
            raise ValueError("parse failures carry no parsed form")


def record_key(record: ProposalRecord) -> str:
    """Novelty comparison key: canonical form, or raw text as fallback."""
    return record.parsed if record.parsed is not None else record.raw_text


@dataclass(frozen=True)
class MetricsSummary:
    vr: float
    nr: float
    rr: float
    rr_at_k: tuple[float, ...]
    failure_counts: dict[str, int]
    coverage: float
    c_count: int | None = None
    c_entropy_bits: float | None = None
    token_count: int | None = None


class RunScorer:
    """Running state of one run: classifies each proposal in O(1) and
    summarises the run from its counters, with no pass over the records.

    ``admissible_set`` needs only ``len`` and ``in`` over canonical forms, so
    lazily counted sets work too. It is taken once, when the run starts, and
    each distinct valid canonical form is tested against it once. Without
    it the scorer only classifies.
    """

    def __init__(self, admissible_set=None):
        self._admissible = admissible_set
        self.admissible_size = 0 if admissible_set is None else len(admissible_set)
        self._valid_keys: set[str] = set()  # comparison keys of valid proposals
        self._other_keys: set[str] = set()  # and of all other proposals
        self._raw: set[str] = set()
        self._counts = dict.fromkeys(CATEGORIES, 0)
        self._valid = 0
        self._novel = 0
        self._recovered: set[str] = set()
        self._curve: list[float] = []
        self._valid_forms: Counter[str] = Counter()
        self.n = 0

    @classmethod
    def replay(cls, records, admissible_set=None) -> "RunScorer":
        """A scorer that has observed ``records`` in order."""
        scorer = cls(admissible_set)
        for record in records:
            scorer.observe(record)
        return scorer

    def is_novel(self, comparison_key: str, valid: bool = False) -> int:
        """1 iff no earlier valid proposal shares the comparison key and, for
        a proposal that is not valid, no other earlier proposal does."""
        return int(
            comparison_key not in self._valid_keys
            and (valid or comparison_key not in self._other_keys)
        )

    def classify(
        self, index: int, raw_text: str, evaluation: TextEvaluation
    ) -> ProposalRecord:
        """The record of the next proposal; the state does not change."""
        parsed = None if evaluation.parse_error is not None else evaluation.canonical
        valid = int(evaluation.valid)
        novel = self.is_novel(parsed if parsed is not None else raw_text, valid)
        if evaluation.parse_error is not None:
            category = "parse_failure"
        elif evaluation.constraint_error is not None:
            category = "constraint_violation"
        elif not valid:
            category = "invalid"
        elif not novel:
            if raw_text in self._raw:
                category = "duplicate_exact"
            else:
                category = "duplicate_canonical"
        else:
            category = "valid_novel"
        return ProposalRecord(
            index=index,
            raw_text=raw_text,
            parsed=parsed,
            category=category,
            valid=valid,
            novel=novel,
        )

    def observe(self, record: ProposalRecord) -> None:
        """Fold one classified proposal into the running state."""
        (self._valid_keys if record.valid else self._other_keys).add(record_key(record))
        self._raw.add(record.raw_text)
        self._counts[record.category] += 1
        self._valid += record.valid
        self._novel += record.novel
        self.n += 1
        if record.valid and record.parsed is not None:
            self._valid_forms[record.parsed] += 1
            if (
                record.novel
                and self._admissible is not None
                and record.parsed in self._admissible
            ):
                self._recovered.add(record.parsed)
        if self.admissible_size:
            self._curve.append(len(self._recovered) / self.admissible_size)

    @property
    def coverage(self) -> float:
        """Fraction of the admissible set hit by distinct valid canonical
        forms; equal to RR under the novelty rule."""
        if not self.admissible_size:
            raise ValueError("admissible set must be nonempty")
        return len(self._recovered) / self.admissible_size

    def summary(self) -> MetricsSummary:
        """VR/NR/RR plus the RR@k curve, coverage, and per-category counts."""
        if self.n == 0:
            raise ValueError("empty run: no records to score")
        coverage = self.coverage
        return MetricsSummary(
            vr=self._valid / self.n,
            nr=self._novel / self.n,
            rr=coverage,
            rr_at_k=tuple(self._curve),
            failure_counts=dict(self._counts),
            coverage=coverage,
        )

    def creativity(self, epsilon: float = 0.0) -> tuple[int, float]:
        """(count of valid canonical forms whose empirical frequency exceeds
        ``epsilon``, entropy in bits of that empirical distribution)."""
        counts = self._valid_forms
        if not counts:
            return 0, 0.0
        total = counts.total()
        c_count = sum(1 for c in counts.values() if c / total > epsilon)
        return c_count, _entropy_bits(counts.values())


def _as_scorer(run, admissible_set=None) -> RunScorer:
    if isinstance(run, RunScorer):
        return run
    return RunScorer.replay(run, admissible_set)


def is_novel(comparison_key: str, earlier, *, valid: bool = False) -> int:
    """1 iff no earlier record shares the comparison key; a valid proposal
    is compared with the earlier valid records only. ``earlier`` is a
    RunScorer or a sequence of records."""
    return _as_scorer(earlier).is_novel(comparison_key, valid)


def make_record(
    index: int,
    raw_text: str,
    evaluation: TextEvaluation,
    earlier,
) -> ProposalRecord:
    """Classify one emission given everything emitted before it.

    ``earlier`` is the run's RunScorer, which then also observes the new
    record, or a sequence of the earlier records, which is left unchanged.
    """
    if not isinstance(earlier, RunScorer):
        return RunScorer.replay(earlier).classify(index, raw_text, evaluation)
    record = earlier.classify(index, raw_text, evaluation)
    earlier.observe(record)
    return record


def score_run(records, admissible_set=None) -> MetricsSummary:
    """VR/NR/RR plus the RR@k curve, coverage, and per-category counts.

    ``records`` is a RunScorer, which carries its admissible set, or a
    sequence of records scored against ``admissible_set``.
    """
    return _as_scorer(records, admissible_set).summary()


def rr_at_k(records, admissible_set=None) -> tuple[float, ...]:
    """Entry k is the recovery rate over the first k records; nondecreasing."""
    return score_run(records, admissible_set).rr_at_k


def coverage_fraction(records, admissible_set=None) -> float:
    """Fraction of the admissible set hit by distinct valid canonical forms."""
    return _as_scorer(records, admissible_set).coverage


def _entropy_bits(counts) -> float:
    total = sum(counts)
    return -sum((c / total) * math.log2(c / total) for c in counts if c) + 0.0


def pattern_entropy(records) -> float:
    """Shannon entropy (bits) of the empirical pattern distribution over the
    given records; the pattern of a record is its comparison key."""
    records = tuple(records)
    if not records:
        raise ValueError("pattern entropy needs a nonempty prefix")
    return _entropy_bits(Counter(record_key(r) for r in records).values())


def _c_log2_c(c: int) -> float:
    return c * math.log2(c) if c else 0.0


def info_gain_series(patterns) -> tuple[float, ...]:
    """Stepwise entropy change: element t is H_t - H_{t-1} with H_0 = 0,
    so partial sums telescope back to the prefix entropies.

    ``patterns`` are records or their comparison keys. H_t is updated per
    step as log2 t - (1/t) * sum(c * log2 c) over the prefix's pattern
    counts c, so the series costs O(N).
    """
    counts: Counter[str] = Counter()
    weighted = 0.0
    series = []
    previous = 0.0
    for t, pattern in enumerate(patterns, start=1):
        key = pattern if isinstance(pattern, str) else record_key(pattern)
        c = counts[key]
        counts[key] = c + 1
        weighted += _c_log2_c(c + 1) - _c_log2_c(c)
        # one pattern has zero entropy; the formula would leave rounding
        current = math.log2(t) - weighted / t if len(counts) > 1 else 0.0
        series.append(current - previous)
        previous = current
    if not series:
        raise ValueError("information gain needs at least one record")
    return tuple(series)


def creativity_measures(
    records,
    admissible_set=None,
    epsilon: float = 0.0,
    *,
    posterior: str = "empirical",
) -> tuple[int, float]:
    """(hypothesis count above the plausibility threshold, posterior entropy
    in bits).

    ``records`` is a RunScorer or a sequence of records. The default
    posterior is the empirical frequency distribution over the run's valid
    canonical hypotheses; ``posterior="uniform"`` switches to the uniform
    distribution over the whole admissible set. A run with no valid
    proposals scores (0, 0.0).
    """
    if not 0 <= epsilon < 1:
        raise ValueError("epsilon must satisfy 0 <= epsilon < 1")
    if posterior == "uniform":
        h = _as_scorer(records, admissible_set).admissible_size
        if h == 0:
            raise ValueError("admissible set must be nonempty")
        c_count = h if 1 / h > epsilon else 0
        return c_count, math.log2(h)
    if posterior != "empirical":
        raise ValueError(f"unknown posterior {posterior!r}")
    return _as_scorer(records).creativity(epsilon)


# --- aggregation --------------------------------------------------------------

@dataclass(frozen=True)
class AggregateRow:
    task: str
    difficulty: str
    metric: str
    mean: float
    std: float

    @property
    def formatted(self) -> str:
        return format_mean_std(self.mean, self.std)


def format_mean_std(mean: float, std: float) -> str:
    return f"{mean * 100:.2f}% ± {std * 100:.2f}%"


def aggregate(
    rows,
    metrics: tuple[str, ...] = ("vr", "nr", "rr"),
    *,
    difficulty_order: dict[str, int] | None = None,
) -> list[AggregateRow]:
    """Mean and sample standard deviation (n-1 divisor; single value -> 0)
    per task x difficulty group, ordered task, then difficulty, then metric.

    ``rows`` are mappings or objects exposing task, difficulty, and each
    metric as an attribute or key.
    """

    def get(row, name):
        if isinstance(row, dict):
            return row[name]
        return getattr(row, name)

    groups: dict[tuple[str, str], list] = {}
    for row in rows:
        groups.setdefault((get(row, "task"), get(row, "difficulty")), []).append(row)
    if not groups:
        raise ValueError("nothing to aggregate")

    def task_rank(task):
        return (TASK_ORDER.index(task), "") if task in TASK_ORDER else (len(TASK_ORDER), task)

    def difficulty_rank(difficulty):
        if difficulty_order and difficulty in difficulty_order:
            return (difficulty_order[difficulty], "")
        return (len(difficulty_order or ()), difficulty)

    out = []
    for task, difficulty in sorted(
        groups, key=lambda td: (task_rank(td[0]), difficulty_rank(td[1]))
    ):
        members = groups[(task, difficulty)]
        for metric in metrics:
            values = [float(get(row, metric)) for row in members]
            mean = sum(values) / len(values)
            if len(values) == 1:
                std = 0.0
            else:
                std = math.sqrt(
                    sum((v - mean) ** 2 for v in values) / (len(values) - 1)
                )
            out.append(AggregateRow(task, difficulty, metric, mean, std))
    return out
