"""Reference scoring by direct scans over every earlier record.

Each proposal is classified by comparing it with the whole list of records
before it, and a run is scored by walking its records again; quadratic in
the run length, and kept apart from ``hyposet.metrics.RunScorer`` so the two
can be checked against each other. The novelty rule is the documented one:
a valid proposal is novel iff no earlier valid proposal has its comparison
key; any other proposal is novel iff no earlier proposal does.
"""

import math
from collections import Counter

from hyposet.metrics import CATEGORIES, MetricsSummary, ProposalRecord


def comparison_key(record):
    return record.parsed if record.parsed is not None else record.raw_text


def naive_record(index, raw_text, evaluation, earlier):
    parsed = None if evaluation.parse_error is not None else evaluation.canonical
    key = parsed if parsed is not None else raw_text
    valid = int(evaluation.valid)
    pool = [r for r in earlier if r.valid] if valid else earlier
    novel = int(all(comparison_key(r) != key for r in pool))
    if evaluation.parse_error is not None:
        category = "parse_failure"
    elif evaluation.constraint_error is not None:
        category = "constraint_violation"
    elif not valid:
        category = "invalid"
    elif not novel:
        if any(r.raw_text == raw_text for r in earlier):
            category = "duplicate_exact"
        else:
            category = "duplicate_canonical"
    else:
        category = "valid_novel"
    return ProposalRecord(index, raw_text, parsed, category, valid, novel)


def naive_run(items):
    """items: (raw text, TextEvaluation) pairs in order -> records."""
    records = []
    for index, (raw, evaluation) in enumerate(items, start=1):
        records.append(naive_record(index, raw, evaluation, records))
    return records


def _entropy_bits(counts):
    total = sum(counts)
    return -sum((c / total) * math.log2(c / total) for c in counts if c) + 0.0


def naive_summary(records, admissible):
    n, h = len(records), len(admissible)
    curve = []
    recovered = 0
    for r in records:
        if r.valid and r.novel and r.parsed is not None and r.parsed in admissible:
            recovered += 1
        curve.append(recovered / h)
    hit = {
        r.parsed
        for r in records
        if r.valid and r.parsed is not None and r.parsed in admissible
    }
    counts = Counter(r.category for r in records)
    c_count, c_entropy_bits = naive_creativity(records)
    return MetricsSummary(
        vr=sum(r.valid for r in records) / n,
        nr=sum(r.novel for r in records) / n,
        rr=recovered / h,
        rr_at_k=tuple(curve),
        failure_counts={c: counts.get(c, 0) for c in CATEGORIES},
        coverage=len(hit) / h,
        c_count=c_count,
        c_entropy_bits=c_entropy_bits,
    )


def naive_creativity(records):
    counts = Counter(r.parsed for r in records if r.valid and r.parsed is not None)
    if not counts:
        return 0, 0.0
    return len(counts), _entropy_bits(counts.values())
