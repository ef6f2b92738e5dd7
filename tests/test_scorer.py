"""RunScorer against the reference scans in ``naive_scoring``, the settled
novelty rule, the incremental entropy series, and the string-level voxel
membership test."""

import itertools
import random

import numpy as np
import pytest

from hyposet import boolexpr, harness, metrics, voxel
from hyposet.metrics import RunScorer, TextEvaluation, make_record, score_run
from hyposet.tasks import get_task

from naive_scoring import naive_creativity, naive_run, naive_summary


def fuzz_items(rng, h_size):
    """A run that mixes parse failures whose raw text equals a canonical
    key, exact and canonical duplicates, invalid proposals with admissible
    keys, valid proposals outside the admissible set, and constraint
    violations that share a key with valid proposals."""
    items = []
    for _ in range(rng.randint(1, 3 * h_size)):
        key = f"h{rng.randint(0, h_size + 2)}"  # the last three lie outside H
        roll = rng.random()
        if roll < 0.4:
            raw = f"raw-{key}-{rng.randint(0, 2)}"
            evaluation = TextEvaluation(key, valid=True)
        elif roll < 0.55:
            raw = f"bad-{rng.randint(0, 3)}"
            evaluation = TextEvaluation(key, valid=False)
        elif roll < 0.7:
            raw = key if rng.random() < 0.5 else f"junk-{rng.randint(0, 3)}"
            evaluation = TextEvaluation(parse_error="no schema line")
        elif roll < 0.85:
            raw = f"deep-{key}"
            evaluation = TextEvaluation(key, constraint_error="too deep")
        else:
            # the raw text of one proposal is the canonical key of another
            raw, evaluation = key, TextEvaluation(key, valid=rng.random() < 0.5)
        items.append((raw, evaluation))
    return items


def scored(items, admissible):
    scorer = RunScorer(admissible)
    records = [
        make_record(index, raw, evaluation, scorer)
        for index, (raw, evaluation) in enumerate(items, start=1)
    ]
    return records, scorer


class TestEquivalence:
    def test_records_and_summary_match_the_reference(self):
        rng = random.Random(31)
        categories = set()
        for _ in range(400):
            h_size = rng.randint(1, 12)
            admissible = frozenset(f"h{i}" for i in range(h_size))
            items = fuzz_items(rng, h_size)
            records, scorer = scored(items, admissible)
            expected = naive_run(items)
            assert records == expected
            assert score_run(scorer) == naive_summary(expected, admissible)
            assert score_run(records, admissible) == naive_summary(expected, admissible)
            for epsilon in (0.0, 0.2):
                assert metrics.creativity_measures(scorer, epsilon=epsilon) == (
                    naive_creativity(expected, epsilon)
                )
            categories.update(r.category for r in records)
        assert categories == set(metrics.CATEGORIES)

    def test_sequence_callers_match_the_scorer(self):
        rng = random.Random(32)
        for _ in range(100):
            h_size = rng.randint(1, 8)
            admissible = frozenset(f"h{i}" for i in range(h_size))
            items = fuzz_items(rng, h_size)
            records, scorer = scored(items, admissible)
            replayed = []
            for index, (raw, evaluation) in enumerate(items, start=1):
                replayed.append(make_record(index, raw, evaluation, replayed))
            assert replayed == records
            assert metrics.rr_at_k(records, admissible) == score_run(scorer).rr_at_k
            assert metrics.coverage_fraction(records, admissible) == scorer.coverage

    def test_membership_tested_once_per_distinct_valid_key(self):
        class CountingSet(frozenset):
            tests = 0

            def __contains__(self, key):
                CountingSet.tests += 1
                return frozenset.__contains__(self, key)

        admissible = CountingSet({"h0", "h1"})
        items = [(f"t{i}", TextEvaluation(f"h{i % 3}", valid=True)) for i in range(30)]
        records, scorer = scored(items, admissible)
        score_run(scorer)
        metrics.creativity_measures(scorer)
        assert CountingSet.tests == 3


class TestNoveltyRule:
    def test_out_of_space_emission_does_not_use_up_a_valid_hypothesis(self):
        task = get_task("bool")
        instance = boolexpr.generate_bool_instance("basic", 3)
        assert task.admissible_count(instance) == 4
        scorer = RunScorer(task.admissible_keys(instance))
        records = [
            make_record(index, raw, task.evaluate_text(instance, raw), scorer)
            for index, raw in enumerate(
                ("EXPR: y AND (y AND (y AND y))", "EXPR: y"), start=1
            )
        ]
        assert [r.category for r in records] == ["constraint_violation", "valid_novel"]
        summary = score_run(scorer)
        assert summary.rr == summary.coverage == 0.25

    def test_rr_equals_coverage_and_stays_below_nr_on_fuzzed_runs(self):
        rng = random.Random(33)
        for _ in range(500):
            h_size = rng.randint(1, 20)
            admissible = frozenset(f"h{i}" for i in range(h_size))
            _, scorer = scored(fuzz_items(rng, h_size), admissible)
            summary = score_run(scorer)
            assert summary.rr == summary.coverage
            assert summary.rr * h_size <= summary.nr * scorer.n + 1e-9

    def test_valid_proposal_compares_with_valid_ones_only(self):
        scorer = RunScorer()
        make_record(1, "k", TextEvaluation(parse_error="junk"), scorer)
        assert metrics.is_novel("k", scorer) == 0
        assert metrics.is_novel("k", scorer, valid=True) == 1


class TestEntropySeries:
    def test_matches_pattern_entropy_of_every_prefix(self):
        rng = random.Random(34)
        for _ in range(30):
            items = fuzz_items(rng, rng.randint(1, 40))
            records, _ = scored(items, frozenset({"h0"}))
            keys = [metrics.record_key(r) for r in records]
            series = metrics.info_gain_series(keys)
            assert series == metrics.info_gain_series(records)
            running = 0.0
            for t, delta in enumerate(series, start=1):
                running += delta
                assert abs(running - metrics.pattern_entropy(records[:t])) < 1e-9

    def test_long_run(self):
        rng = random.Random(35)
        keys = [f"p{int(rng.paretovariate(1.2))}" for _ in range(3000)]
        records, _ = scored(
            [(k, TextEvaluation(k, valid=True)) for k in keys], frozenset({"p1"})
        )
        entropy = sum(metrics.info_gain_series(keys))
        assert abs(entropy - metrics.pattern_entropy(records)) < 1e-9

    def test_empty(self):
        with pytest.raises(ValueError):
            metrics.info_gain_series([])


# --- voxel membership -----------------------------------------------------------


def reference_contains(key, projection, k):
    """Parse the key back into a tensor and validate it with numpy."""
    try:
        stack = voxel.stack_from_canon(key)
        proj = np.asarray(projection, dtype=np.uint8)
        if stack.shape != (k,) + proj.shape:
            return False
        return voxel.validate_stack(stack, proj)
    except (ValueError, IndexError):
        return False


def voxel_instance(projection, k):
    return voxel.VoxelInstance(
        projection=tuple(tuple(row) for row in projection),
        k=k,
        count=voxel.count_admissible(projection, k),
    )


SHAPES = ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2))


def every_stack(rows, cols, k):
    for bits in itertools.product((0, 1), repeat=k * rows * cols):
        yield np.asarray(bits, dtype=np.uint8).reshape(k, rows, cols)


class TestVoxelMembership:
    def test_agrees_with_validate_stack_on_every_small_stack(self):
        task = get_task("voxel")
        keys = {
            (shape, k): [voxel.canon_stack(s) for s in every_stack(*shape, k)]
            for shape in SHAPES
            for k in (1, 2, 3)
            if k * shape[0] * shape[1] <= 9
        }
        admitted = 0
        for (rows, cols) in SHAPES:
            for bits in itertools.product((0, 1), repeat=rows * cols):
                projection = np.asarray(bits, dtype=np.uint8).reshape(rows, cols)
                for k in (1, 2, 3):
                    instance = voxel_instance(projection.tolist(), k)
                    members = task.admissible_keys(instance)
                    found = 0
                    for (shape, stack_k), candidates in keys.items():
                        for key in candidates:
                            expected = (
                                shape == (rows, cols)
                                and stack_k == k
                                and voxel.validate_stack(
                                    voxel.stack_from_canon(key), projection
                                )
                            )
                            assert (key in members) == expected, (key, projection, k)
                            found += expected
                    if (rows * cols * k) <= 9:
                        assert found == len(members)
                    admitted += found
        assert admitted > 0

    @pytest.mark.parametrize(
        "corrupt",
        [
            "11/10|11/00",  # a layer missing
            "11/10|11/00|10/00|00/00",  # a layer too many
            "11/10|1/100|10/00",  # ragged row, same layer length
            "11/10|11/0|10/00",  # short row
            "11/10|01/00|10/01",  # floating voxel
            "11/10|11/00|00/10",  # a voxel above a gap
            "11/10|11/01|10/00",  # a voxel above an empty column
            "110/100|110/000|100/000",  # a stray column
            "11/10/00|11/00/00|10/00/00",  # a stray row
            "11/10|12/00|10/00",  # a cell that is not 0/1
            "11/10|1_/00|10/00",
            "11/10| 1/00|10/00",
            "11/1+|11/00|10/00",
            "11/10||10/00",
            "",
        ],
    )
    def test_rejects_corrupted_keys(self, corrupt):
        projection, k = [[1, 1], [1, 0]], 3
        members = get_task("voxel").admissible_keys(voxel_instance(projection, k))
        assert "11/10|11/00|10/00" in members
        assert corrupt not in members
        assert not reference_contains(corrupt, projection, k)

    def test_non_string_keys(self):
        members = get_task("voxel").admissible_keys(voxel_instance([[1]], 2))
        assert None not in members and 1 not in members


class TestRunPath:
    def test_run_and_rescore_use_one_scorer_path(self, tmp_path):
        task = get_task("voxel")
        inst = task.generate(seed=4, level="2")
        config = harness.SamplerConfig(kind="random_valid", seed=2)
        path = tmp_path / "run.jsonl"
        log = harness.run_instance(
            task, inst, harness.make_sampler(config, task, inst), config,
            log_path=path, n_override=30, deterministic=True,
        )
        expected = naive_summary(log.records, task.admissible_keys(inst))
        assert log.summary.rr_at_k == expected.rr_at_k
        assert log.summary.failure_counts == expected.failure_counts
        stored, rescored = harness.rescore_log(path)
        assert stored["rr_at_k"] == list(rescored.rr_at_k) == list(expected.rr_at_k)
