import math
import random

import pytest

from hyposet.metrics import (
    CATEGORIES,
    ProposalRecord,
    RunScorer,
    TextEvaluation,
    aggregate,
    creativity_measures,
    format_mean_std,
    info_gain_series,
    make_record,
    pattern_entropy,
    record_key,
    score_run,
)


def build_run(specs):
    """specs: (raw, canonical|None, parse_err, constraint_err, valid) tuples."""
    records = []
    for index, (raw, canonical, parse_err, constraint_err, valid) in enumerate(
        specs, start=1
    ):
        evaluation = TextEvaluation(
            canonical=canonical,
            parse_error=parse_err,
            constraint_error=constraint_err,
            valid=valid,
        )
        records.append(make_record(index, raw, evaluation, records))
    return records


def valid(raw, key):
    return (raw, key, None, None, True)


def invalid(raw, key):
    return (raw, key, None, None, False)


def garbage(raw):
    return (raw, None, "no schema line", None, False)


H4 = frozenset({"h1", "h2", "h3", "h4"})


class TestNovelty:
    def test_first_proposal_is_novel(self):
        assert RunScorer().is_novel("anything") == 1
        assert build_run([garbage("anything")])[0].novel == 1

    def test_exact_repeat(self):
        records = build_run([valid("t1", "h1"), valid("t2", "h2"), valid("t1", "h1")])
        assert records[2].novel == 0
        assert records[2].category == "duplicate_exact"

    def test_canonical_duplicate_different_surface(self):
        records = build_run([valid("y AND x", "AND(x,y)"), valid("x AND y", "AND(x,y)")])
        assert records[1].novel == 0
        assert records[1].category == "duplicate_canonical"

    def test_unparseable_uses_raw_text_key(self):
        records = build_run([garbage("???"), garbage("???"), garbage("!!!")])
        assert [r.novel for r in records] == [1, 0, 1]
        assert all(r.category == "parse_failure" for r in records)


class TestClassification:
    def test_invalid_duplicate_counts_invalid(self):
        records = build_run([invalid("t", "bad1"), invalid("t", "bad1")])
        assert [r.category for r in records] == ["invalid", "invalid"]
        assert records[1].novel == 0

    def test_constraint_violation_before_invalid(self):
        records = build_run([("t", "k1", None, "cycle", False)])
        assert records[0].category == "constraint_violation"

    def test_parse_failure_has_no_parsed_form(self):
        with pytest.raises(ValueError):
            ProposalRecord(1, "t", "k", "parse_failure", 0, 1)

    def test_valid_novel_consistency(self):
        with pytest.raises(ValueError):
            ProposalRecord(1, "t", "k", "valid_novel", 0, 1)


class TestScoreRun:
    def test_mixed_run(self):
        records = build_run(
            [valid("t1", "h1"), valid("t2", "h2"), valid("t3", "h1"), invalid("t4", "zz")]
        )
        summary = score_run(records, H4)
        assert (summary.vr, summary.nr, summary.rr) == (0.75, 0.75, 0.5)

    def test_perfect_oracle(self):
        records = build_run([valid(f"t{i}", f"h{i}") for i in (1, 2, 3, 4)])
        summary = score_run(records, H4)
        assert (summary.vr, summary.nr, summary.rr) == (1.0, 1.0, 1.0)

    def test_constant_repeater(self):
        h5 = frozenset(f"h{i}" for i in range(5))
        records = build_run([valid("same", "h0")] * 5)
        summary = score_run(records, h5 | {"h0"} - {"h4"})
        assert (summary.vr, summary.nr, summary.rr) == (1.0, 0.2, 0.2)

    def test_counts_partition_run(self):
        records = build_run(
            [valid("a", "h1"), garbage("x"), invalid("b", "q"), valid("a", "h1")]
        )
        summary = score_run(records, H4)
        assert sum(summary.failure_counts.values()) == len(records)
        assert set(summary.failure_counts) == set(CATEGORIES)

    def test_empty_run_is_an_error(self):
        with pytest.raises(ValueError):
            score_run([], H4)
        with pytest.raises(ValueError):
            score_run(build_run([valid("t", "h1")]), frozenset())


class TestRrAtK:
    def test_oracle_curve(self):
        records = build_run([valid(f"t{i}", f"h{i}") for i in (1, 2, 3, 4)])
        assert score_run(records, H4).rr_at_k == (0.25, 0.5, 0.75, 1.0)

    def test_repeater_flat(self):
        records = build_run([valid("t", "h1")] * 4)
        assert score_run(records, H4).rr_at_k == (0.25, 0.25, 0.25, 0.25)

    def test_final_matches_score_run(self):
        rng = random.Random(5)
        specs = []
        for i in range(20):
            kind = rng.choice(["v", "i", "g"])
            if kind == "v":
                specs.append(valid(f"raw{rng.randint(0, 8)}", f"h{rng.randint(1, 4)}"))
            elif kind == "i":
                specs.append(invalid(f"bad{i}", f"z{rng.randint(1, 3)}"))
            else:
                specs.append(garbage(f"junk{rng.randint(0, 2)}"))
        records = build_run(specs)
        summary = score_run(records, H4)
        curve = summary.rr_at_k
        assert len(curve) == len(records) and curve[-1] == summary.rr
        assert all(a <= b for a, b in zip(curve, curve[1:]))


class TestEntropy:
    def test_all_same(self):
        assert pattern_entropy(build_run([valid("a", "a")] * 3)) == 0.0

    def test_two_distinct(self):
        assert pattern_entropy(build_run([valid("a", "a"), valid("b", "b")])) == 1.0

    def test_two_one_split(self):
        records = build_run([valid("a", "a"), valid("a2", "a"), valid("b", "b")])
        expected = -(2 / 3 * math.log2(2 / 3) + 1 / 3 * math.log2(1 / 3))
        assert abs(pattern_entropy(records) - expected) < 1e-9
        assert abs(pattern_entropy(records) - 0.9183) < 1e-4

    def test_empty_prefix(self):
        with pytest.raises(ValueError):
            pattern_entropy([])

    def test_bounded_by_log_t(self):
        rng = random.Random(1)
        records = build_run(
            [valid(f"r{i}", f"h{rng.randint(0, 5)}") for i in range(16)]
        )
        h = pattern_entropy(records)
        distinct = len({record_key(r) for r in records})
        assert h <= math.log2(len(records)) + 1e-12
        assert h <= math.log2(distinct) + 1e-12


class TestInfoGain:
    def test_two_one_split_series(self):
        records = build_run([valid("a", "a"), valid("a2", "a"), valid("b", "b")])
        series = info_gain_series(records)
        assert series[0] == 0.0 and series[1] == 0.0
        assert abs(series[2] - 0.9183) < 1e-4

    def test_repeater_all_zero(self):
        assert info_gain_series(build_run([valid("a", "a")] * 5)) == (0.0,) * 5

    def test_telescoping_at_every_prefix(self):
        rng = random.Random(2)
        records = build_run(
            [valid(f"r{i}", f"h{rng.randint(0, 9)}") for i in range(64)]
        )
        series = info_gain_series(records)
        partial = 0.0
        for t, delta in enumerate(series, start=1):
            partial += delta
            assert abs(partial - pattern_entropy(records[:t])) < 1e-12


class TestCreativity:
    def test_uniform_over_four(self):
        records = build_run([valid(f"t{i}", f"h{i}") for i in (1, 2, 3, 4)])
        assert creativity_measures(records) == (4, 2.0)

    def test_single_hypothesis(self):
        count, bits = creativity_measures(build_run([valid("t", "h1")]))
        assert (count, bits) == (1, 0.0)

    def test_no_valid_proposals(self):
        assert creativity_measures(build_run([garbage("x")])) == (0, 0.0)


class TestCoverage:
    def test_oracle_full_coverage(self):
        records = build_run([valid(f"t{i}", f"h{i}") for i in (1, 2, 3, 4)])
        assert score_run(records, H4).coverage == 1.0

    def test_repeater(self):
        assert score_run(build_run([valid("t", "h1")] * 6), H4).coverage == 0.25

    def test_zero_valid(self):
        assert score_run(build_run([garbage("x")]), H4).coverage == 0.0

    def test_more_valid_forms_than_the_set_is_an_error(self):
        # only a validator that breaks "valid => in H" can get here
        records = build_run([valid(f"t{i}", f"h{i}") for i in range(5)])
        with pytest.raises(ValueError, match="exceed the admissible set of 4"):
            score_run(records, H4)


class TestAggregate:
    def test_single_value(self):
        rows = [{"task": "causal", "difficulty": "nodes=4", "vr": 1.0, "nr": 1.0, "rr": 1.0}]
        out = aggregate(rows)
        assert out[0].formatted == "100.00% ± 0.00%"

    def test_sample_std(self):
        rows = [
            {"task": "bool", "difficulty": "basic", "vr": 0.5, "nr": 0, "rr": 0},
            {"task": "bool", "difficulty": "basic", "vr": 1.0, "nr": 0, "rr": 0},
        ]
        row = aggregate(rows, ("vr",))[0]
        assert row.formatted == "75.00% ± 35.36%"

    def test_row_ordering(self):
        rows = []
        for task, difficulty in [
            ("bool", "basic"),
            ("voxel", "tp=2"),
            ("voxel", "tp=1"),
            ("causal", "nodes=4"),
        ]:
            rows.append(
                {"task": task, "difficulty": difficulty, "vr": 1, "nr": 1, "rr": 1}
            )
        order = {"tp=1": 0, "tp=2": 1, "nodes=4": 0, "basic": 0}
        out = aggregate(rows, difficulty_order=order)
        flat = [(r.task, r.difficulty, r.metric) for r in out]
        assert flat == [
            ("causal", "nodes=4", "vr"),
            ("causal", "nodes=4", "nr"),
            ("causal", "nodes=4", "rr"),
            ("voxel", "tp=1", "vr"),
            ("voxel", "tp=1", "nr"),
            ("voxel", "tp=1", "rr"),
            ("voxel", "tp=2", "vr"),
            ("voxel", "tp=2", "nr"),
            ("voxel", "tp=2", "rr"),
            ("bool", "basic", "vr"),
            ("bool", "basic", "nr"),
            ("bool", "basic", "rr"),
        ]

    def test_empty_is_error(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_formatting(self):
        assert format_mean_std(0.353553, 0.0) == "35.36% ± 0.00%"


class TestInvariantsFuzz:
    def test_identities_on_random_runs(self):
        # N never exceeds |H_O|, mirroring the sampling protocol; RR <= NR
        # is only guaranteed under that budget rule
        rng = random.Random(1234)
        for _ in range(200):
            h_size = rng.randint(1, 40)
            admissible = frozenset(f"h{i}" for i in range(h_size))
            specs = []
            for i in range(rng.randint(1, h_size)):
                roll = rng.random()
                if roll < 0.45:
                    key = f"h{rng.randint(0, h_size - 1)}"
                    specs.append(valid(f"raw-{key}-{rng.randint(0, 2)}", key))
                elif roll < 0.6:
                    specs.append(invalid(f"bad{rng.randint(0, 5)}", f"z{rng.randint(0, 3)}"))
                elif roll < 0.75:
                    specs.append(garbage(f"junk{rng.randint(0, 3)}"))
                else:
                    specs.append(("t", f"c{rng.randint(0, 3)}", None, "broken", False))
            records = build_run(specs)
            summary = score_run(records, admissible)
            n = len(records)
            assert sum(summary.failure_counts.values()) == n
            assert summary.rr <= summary.nr + 1e-12
            recovered = sum(
                1
                for r in records
                if r.valid and r.novel and r.parsed in admissible
            )
            assert summary.rr * h_size == pytest.approx(recovered)
            assert recovered <= n * min(summary.vr, summary.nr) + 1e-12
            assert all(0 <= v <= 1 for v in (summary.vr, summary.nr, summary.rr))
            curve = summary.rr_at_k
            assert len(curve) == n
            assert all(a <= b for a, b in zip(curve, curve[1:]))
            assert curve[-1] == summary.rr
            # scoring is pure
            assert score_run(records, admissible) == summary
