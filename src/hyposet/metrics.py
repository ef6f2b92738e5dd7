"""Scoring and analysis: validity/uniqueness/recovery, coverage curves,
failure-mode decomposition, empirical-posterior creativity measures, and
entropy/information-gain series.

Definitions over a run of N ordered proposals against an enumerated
admissible set H:

* validity rate   VR = #valid / N
* uniqueness rate NR = #novel / N   (order-respecting, all proposals)
* recovery rate   RR = #(distinct valid canonical forms) / |H|

Every proposal has a comparison key: its canonical form when the emission
parses, its exact raw text otherwise. A valid proposal is novel iff no
earlier valid proposal has its canonical form; any other proposal is novel
iff no earlier proposal shares its comparison key. So an out-of-space or
invalid emission never uses up the novelty of a valid hypothesis, RR equals
coverage (the fraction of H hit by distinct valid canonical forms) in every
run, and RR <= NR whenever N <= |H|. Each proposal lands in exactly one
failure category, resolved in this precedence order: parse_failure,
constraint_violation, invalid, duplicate_exact (valid, not novel, raw text
seen before), duplicate_canonical, valid_novel.

Every task's validator keeps one contract: a valid proposal's canonical
form lies in H (causal: an acyclic graph that matches every observation;
voxel: a settled stack over the projection; bool: an in-space form that
agrees with the data). So scoring needs only |H|: the valid_novel records
are the distinct valid canonical forms, and no form is looked up in H.
``tests/test_contract.py`` checks the contract against the enumerators.

A run's proposals enter its RunScorer by ``add`` alone, in O(1) each, and
``summary`` closes the run with no second pass. A run adds the judge's
evaluations; a stored record or log line goes through ``add`` with the one
its category states (``stated_evaluation``), and a derived category that
differs makes ``RunScorer.replay`` raise and ``report`` skip the log. The
module-level functions are thin uses of RunScorer.
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
# the categories of a proposal consistent with the observations
_VALID_CATEGORIES = frozenset(("duplicate_exact", "duplicate_canonical", "valid_novel"))

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
        if self.valid and self.parsed is None:
            raise ValueError("valid records carry a parsed form")


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
    c_count: int
    c_entropy_bits: float
    token_count: int | None = None


class RunScorer:
    """Running state of one run: ``add`` classifies each proposal in O(1),
    and ``summary`` closes the run from the counters.

    ``admissible_size`` is |H|; the recovered forms are the valid_novel
    records, which the validators' contract puts in H. With size 0 the
    scorer only classifies.
    """

    def __init__(self, admissible_size: int = 0):
        self.admissible_size = admissible_size
        self._other_keys: set[str] = set()  # comparison keys of proposals not valid
        # each raw text seen, with the evaluation it was first added with
        self._raw: dict[str, TextEvaluation] = {}
        self._counts = dict.fromkeys(CATEGORIES, 0)
        self._valid = 0
        self._novel = 0
        self._curve: list[float] = []
        self._valid_forms: Counter[str] = Counter()  # by canonical form
        self.n = 0

    @classmethod
    def replay(cls, records, admissible_size: int = 0) -> "RunScorer":
        """A scorer that has added ``records`` in order, each with its
        ``stated_evaluation``; a record other than the one the records
        before it give raises ValueError."""
        scorer = cls(admissible_size)
        for record in records:
            evaluation = stated_evaluation(record.parsed, record.category)
            derived = scorer.add(record.index, record.raw_text, evaluation)
            if derived != record:
                raise ValueError(f"{record} breaks the novelty rule; the"
                                 f" records before it give {derived}")
        return scorer

    def evaluation_of(self, raw_text: str) -> TextEvaluation | None:
        """The evaluation an earlier proposal with this exact raw text was
        added with, or None; evaluations are pure functions of the text, so
        a run judges each distinct text once."""
        return self._raw.get(raw_text)

    def is_novel(self, comparison_key: str, valid: bool = False) -> int:
        """1 iff no earlier valid proposal shares the comparison key and, for
        a proposal that is not valid, no other earlier proposal does."""
        return int(
            comparison_key not in self._valid_forms
            and (valid or comparison_key not in self._other_keys)
        )

    def add(
        self, index: int, raw_text: str, evaluation: TextEvaluation
    ) -> ProposalRecord:
        """Classify the next proposal by its evaluation and the proposals
        before it, fold it into the running state, and return its record."""
        parsed = None if evaluation.parse_error is not None else evaluation.canonical
        key = parsed if parsed is not None else raw_text
        valid = int(evaluation.valid)
        novel = self.is_novel(key, valid)
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
        # built before the state changes: a malformed record raises here
        record = ProposalRecord(index, raw_text, parsed, category, valid, novel)
        if valid:
            self._valid_forms[key] += 1
        else:
            self._other_keys.add(key)
        self._raw.setdefault(raw_text, evaluation)
        self._counts[category] += 1
        self._valid += valid
        self._novel += novel
        self.n += 1
        if self.admissible_size:
            self._curve.append(self._counts["valid_novel"] / self.admissible_size)
        return record

    def summary(self) -> MetricsSummary:
        """VR/NR/RR plus the RR@k curve, coverage, per-category counts and
        the creativity measures.

        More distinct valid forms than |H| means a validator broke the
        contract, and raises ValueError rather than report RR > 1."""
        if self.n == 0:
            raise ValueError("empty run: no records to score")
        if not self.admissible_size:
            raise ValueError("admissible set must be nonempty")
        recovered = self._counts["valid_novel"]
        if recovered > self.admissible_size:
            raise ValueError(
                f"{recovered} distinct valid forms exceed the admissible"
                f" set of {self.admissible_size}"
            )
        coverage = recovered / self.admissible_size
        c_count, c_entropy_bits = self.creativity()
        return MetricsSummary(
            vr=self._valid / self.n,
            nr=self._novel / self.n,
            rr=coverage,
            rr_at_k=tuple(self._curve),
            failure_counts=dict(self._counts),
            coverage=coverage,
            c_count=c_count,
            c_entropy_bits=c_entropy_bits,
        )

    def creativity(self) -> tuple[int, float]:
        """(count of distinct valid canonical forms, entropy in bits of
        their empirical distribution)."""
        return len(self._valid_forms), _entropy_bits(self._valid_forms.values())


def stated_evaluation(canonical: str | None, category: str) -> TextEvaluation:
    """The evaluation that ``category`` states for a proposal whose
    canonical form is ``canonical``: how a stored record or log line, which
    keeps no judge's message, goes back through ``RunScorer.add``. An
    unknown category raises ValueError."""
    if category == "parse_failure":
        return TextEvaluation(canonical, parse_error=category)
    if category == "constraint_violation":
        return TextEvaluation(canonical, constraint_error=category)
    if category not in CATEGORIES:
        raise ValueError(f"proposal category {category!r} is unknown")
    return TextEvaluation(canonical, valid=category in _VALID_CATEGORIES)


def _as_scorer(run, admissible_set=()) -> RunScorer:
    if isinstance(run, RunScorer):
        return run
    return RunScorer.replay(run, len(admissible_set))


def make_record(
    index: int,
    raw_text: str,
    evaluation: TextEvaluation,
    earlier,
) -> ProposalRecord:
    """Classify one emission given everything emitted before it.

    ``earlier`` is the run's RunScorer, which then also holds the new
    record, or a sequence of the earlier records, which is left unchanged.
    """
    return _as_scorer(earlier).add(index, raw_text, evaluation)


def score_run(records, admissible_set=()) -> MetricsSummary:
    """VR/NR/RR plus the RR@k curve (entry k is RR over the first k records),
    coverage, per-category counts and the creativity measures.

    ``records`` is a RunScorer, which carries |H|, or a sequence of records
    scored against ``len(admissible_set)``.
    """
    return _as_scorer(records, admissible_set).summary()


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


def creativity_measures(records) -> tuple[int, float]:
    """(count of hypotheses with posterior mass, posterior entropy in bits).

    ``records`` is a RunScorer or a sequence of records. The posterior is the
    empirical frequency distribution over the run's valid canonical
    hypotheses. A run with no valid proposals scores (0, 0.0).
    """
    return _as_scorer(records).creativity()


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
