"""RunScorer against the reference scans in ``naive_scoring``, the settled
novelty rule, the incremental entropy series, the once-per-text judging of a
run, and the voxel admissible walk, string judge and emitter against the
tensor functions."""

import dataclasses
import itertools
import random

import numpy as np
import pytest

from hyposet import boolexpr, harness, metrics, voxel
from hyposet.errors import ParseFailure
from hyposet.metrics import RunScorer, TextEvaluation, make_record, score_run
from hyposet.tasks import extract_marked_lines, get_task

from naive_scoring import naive_creativity, naive_run, naive_summary


def fuzz_items(rng, h_size):
    """A run that mixes parse failures whose raw text equals a canonical
    key, exact and canonical duplicates, invalid proposals with keys in and
    outside the admissible set, and constraint violations that share a key
    with valid proposals. Valid keys lie in H, as every validator
    guarantees (see test_contract.py); the other kinds may lie outside."""
    items = []
    for _ in range(rng.randint(1, 3 * h_size)):
        key = f"h{rng.randint(0, h_size + 2)}"  # the last three lie outside H
        member = f"h{rng.randint(0, h_size - 1)}"
        roll = rng.random()
        if roll < 0.4:
            raw = f"raw-{member}-{rng.randint(0, 2)}"
            evaluation = TextEvaluation(member, valid=True)
        elif roll < 0.55:
            raw = f"bad-{rng.randint(0, 3)}"
            evaluation = TextEvaluation(key, valid=False)
        elif roll < 0.7:
            raw = key if rng.random() < 0.5 else f"junk-{rng.randint(0, 3)}"
            evaluation = TextEvaluation(parse_error="no schema line")
        elif roll < 0.85:
            raw = f"deep-{key}"
            evaluation = TextEvaluation(key, constraint_error="too deep")
        elif rng.random() < 0.5:
            # the raw text of one proposal is the canonical key of another
            raw, evaluation = member, TextEvaluation(member, valid=True)
        else:
            raw, evaluation = key, TextEvaluation(key, valid=False)
        items.append((raw, evaluation))
    return items


def scored(items, admissible):
    scorer = RunScorer(len(admissible))
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
            assert metrics.creativity_measures(scorer) == naive_creativity(expected)
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
            assert score_run(records, admissible) == score_run(scorer)

    def test_stored_lines_replay_to_the_runs_summary(self):
        # a log's proposal lines (raw text, parsed form, category), added
        # with the evaluations their categories state, give back the records
        # and the scorer's every number and keys
        rng = random.Random(35)
        for _ in range(200):
            h_size = rng.randint(1, 8)
            admissible = frozenset(f"h{i}" for i in range(h_size))
            records, scorer = scored(fuzz_items(rng, h_size), admissible)
            lines = RunScorer(h_size)
            readd = [
                lines.add(r.index, r.raw_text,
                          metrics.stated_evaluation(r.parsed, r.category))
                for r in records
            ]
            assert readd == records  # so each record's key too
            assert score_run(lines) == score_run(scorer)
            assert lines.creativity() == scorer.creativity()
            assert lines.n == scorer.n


class TestNoveltyRule:
    def test_out_of_space_emission_does_not_use_up_a_valid_hypothesis(self):
        task = get_task("bool")
        instance = boolexpr.generate_bool_instance("basic", 3)
        assert task.admissible_count(instance) == 4
        scorer = RunScorer(task.admissible_count(instance))
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
        assert scorer.is_novel("k") == 0
        assert scorer.is_novel("k", valid=True) == 1

    def test_replay_of_records_the_rule_does_not_give_raises(self):
        # one form proposed as "a", "b", "a": the two duplicates swapped
        # keep every count, but not the rule's order
        records, _ = scored([("a", TextEvaluation("h0", valid=True)),
                             ("b", TextEvaluation("h0", valid=True)),
                             ("a", TextEvaluation("h0", valid=True))], {"h0"})
        assert [r.category for r in records] == [
            "valid_novel", "duplicate_canonical", "duplicate_exact",
        ]
        assert RunScorer.replay(records).n == 3
        swapped = [
            records[0],
            dataclasses.replace(records[1], category="duplicate_exact"),
            dataclasses.replace(records[2], category="duplicate_canonical"),
        ]
        with pytest.raises(ValueError, match="breaks the novelty rule"):
            RunScorer.replay(swapped)
        forged = [records[0], dataclasses.replace(records[1], category="valid_novel", novel=1)]
        with pytest.raises(ValueError, match="breaks the novelty rule"):
            score_run(forged, {"h0"})


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
            [(k, TextEvaluation(k, valid=True)) for k in keys], set(keys)
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
                    walked = set(members)
                    assert len(walked) == len(members)
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
                            assert (key in walked) == expected, (key, projection, k)
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
        members = set(get_task("voxel").admissible_keys(voxel_instance(projection, k)))
        assert "11/10|11/00|10/00" in members
        assert corrupt not in members
        assert not reference_contains(corrupt, projection, k)

    def test_non_string_keys(self):
        members = set(get_task("voxel").admissible_keys(voxel_instance([[1]], 2)))
        assert members == {"1|0", "1|1"}
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
        expected = naive_summary(log.records, frozenset(task.admissible_keys(inst)))
        assert log.summary.rr_at_k == expected.rr_at_k
        assert log.summary.failure_counts == expected.failure_counts
        stored, rescored = harness.rescore_log(path)
        assert stored["rr_at_k"] == list(rescored.rr_at_k) == list(expected.rr_at_k)

    def test_each_distinct_raw_text_is_judged_once(self, tmp_path, monkeypatch):
        task = get_task("voxel")
        inst = task.generate(seed=4, level="2")
        texts = list(task.admissible_texts(inst))
        script = [
            texts[0], texts[1], texts[0], "```\n" + texts[0] + "\n```",
            "no stack here", texts[2], "no stack here", texts[1], texts[0],
        ]
        judge = task.evaluate_text
        calls = []

        def counting(instance, raw):
            calls.append(raw)
            return judge(instance, raw)

        monkeypatch.setattr(task, "evaluate_text", counting)
        config = harness.SamplerConfig(kind="scripted", script=tuple(script))
        path = tmp_path / "run.jsonl"
        log = harness.run_instance(
            task, inst, harness.make_sampler(config, task, inst), config,
            log_path=path, n_override=2 * len(script), deterministic=True,
        )
        assert sorted(calls) == sorted(set(script))
        unmemoized = RunScorer(task.admissible_count(inst))
        expected = [
            make_record(index, raw, judge(inst, raw), unmemoized)
            for index, raw in enumerate(script + script, start=1)
        ]
        assert list(log.records) == expected
        assert log.summary.failure_counts == score_run(unmemoized).failure_counts
        calls.clear()
        stored, rescored = harness.rescore_log(path)
        assert sorted(calls) == sorted(set(script))
        assert stored["failure_counts"] == rescored.failure_counts


# --- voxel string judge ---------------------------------------------------------


def reference_evaluation(instance, raw):
    """The voxel judge rebuilt from the tensor functions."""
    try:
        block = extract_marked_lines(raw, "LAYERS", multiline=True)
        stack = voxel.parse_layers(block)
    except ParseFailure as err:
        return TextEvaluation(parse_error=str(err))
    canonical = voxel.canon_stack(stack)
    proj = np.asarray(instance.projection, dtype=np.uint8)
    if stack.shape != (instance.k,) + proj.shape:
        return TextEvaluation(
            canonical=canonical,
            constraint_error=(
                f"expected {instance.k} layers of {proj.shape[0]}x{proj.shape[1]}, "
                f"got {stack.shape[0]} of {stack.shape[1]}x{stack.shape[2]}"
            ),
        )
    if not voxel.check_gravity(stack):
        return TextEvaluation(canonical=canonical, constraint_error="floating voxel")
    return TextEvaluation(canonical=canonical, valid=voxel.validate_stack(stack, proj))


def dressed(text, style):
    if style == "fenced":
        return "```\n" + text + "\n```"
    if style == "chatty":
        return "Here is one stack.\n" + text + "\nIs that what you meant?"
    return text


class TestVoxelStringJudge:
    def test_agrees_with_the_tensor_reference_on_every_small_stack(self):
        task = get_task("voxel")
        rng = random.Random(36)
        verdicts = set()
        for rows, cols in SHAPES:
            for k in (1, 2, 3):
                if k * rows * cols > 9:
                    continue
                for count, stack in enumerate(every_stack(rows, cols, k)):
                    own = voxel.project(stack).tolist()
                    other = rng.choice([own, np.ones((rows, cols), int).tolist()])
                    instances = [
                        voxel_instance(own, k),
                        voxel_instance(own, k % 3 + 1),
                        voxel_instance(other, k),
                        voxel_instance(np.ones((cols, rows + 1), int).tolist(), k),
                    ]
                    style = ("plain", "fenced", "chatty")[count % 3]
                    raw = dressed(voxel.serialize_stack(stack), style)
                    for instance in instances:
                        got = task.evaluate_text(instance, raw)
                        assert got == reference_evaluation(instance, raw), raw
                        verdicts.add((got.valid, got.constraint_error is None))
        assert verdicts == {(True, True), (False, True), (False, False)}

    @pytest.mark.parametrize(
        "raw",
        [
            "LAYERS:\n11\n10\n\n11\n00",  # a layer missing
            "LAYERS:\n11\n10\n\n11\n00\n\n10\n00\n\n00\n00",  # a layer too many
            "LAYERS:\n11\n10\n\n1\n00\n\n10\n00",  # ragged rows
            "LAYERS:\n11\n10\n\n11\n00\n10\n\n10\n00",  # ragged layers
            "LAYERS:\n11\n10\n\n01\n00\n\n10\n01",  # floating voxel
            "LAYERS:\n11\n10\n\n11\n00\n\n00\n10",  # a voxel above a gap
            "LAYERS:\n11\n11\n\n11\n00\n\n10\n00",  # wrong projection
            "LAYERS:\n110\n100\n\n110\n000\n\n100\n000",  # a stray column
            "LAYERS:\n11\n10\n00\n\n11\n00\n00\n\n10\n00\n00",  # a stray row
            "```\nLAYERS:\n11\n10\n\n11\n00\n\n10\n00\n```",  # fenced
            "Sure.\nLAYERS:\n11\n10\n\n11\n00\n\n10\n00\nDone, 3 layers.",  # chatty
            "LAYERS: \n 11 \n10\n\n\n\n11\n00\n\n10\n00\n\n",  # loose spacing
            "LAYERS:\n11\n10\n\n11\n00\n\n10\n00\nLAYERS:\n11\n11",  # two blocks
            "LAYERS:\n12\n10\n\n11\n00\n\n10\n00",  # a cell that is not 0/1
            "LAYERS:\n\n\n",  # no rows
            "LAYERS:",
            "the stack is 11/10|11/00|10/00",  # no marker
            "",
        ],
    )
    def test_corrupted_emissions_match_the_reference(self, raw):
        instance = voxel_instance([[1, 1], [1, 0]], 3)
        assert get_task("voxel").evaluate_text(instance, raw) == (
            reference_evaluation(instance, raw)
        )

    def test_fuzzed_emissions_match_the_reference(self):
        task = get_task("voxel")
        instance = task.generate(seed=5, level="1", grid=4, height=3, occupied=6)
        texts = list(task.admissible_texts(instance))
        rng = random.Random(37)
        kinds = set()
        for _ in range(1500):
            text = rng.choice(texts)
            op = rng.randrange(6)
            if op == 4:  # drop or repeat a layer
                blocks = text.split("\n\n")
                at = rng.randrange(1, len(blocks))
                blocks[at:at + 1] = [] if rng.random() < 0.5 else [blocks[at]] * 2
                text = "\n\n".join(blocks)
            lines = text.split("\n")
            at = rng.randrange(1, len(lines))
            if op == 0 and lines[at]:  # flip a cell
                col = rng.randrange(len(lines[at]))
                cell = "1" if lines[at][col] == "0" else "0"
                lines[at] = lines[at][:col] + cell + lines[at][col + 1:]
            elif op == 1:  # drop a line
                del lines[at]
            elif op == 2:  # repeat a line
                lines.insert(at, lines[at])
            elif op == 3:  # swap two lines, the marker included
                other = rng.randrange(len(lines))
                lines[at], lines[other] = lines[other], lines[at]
            raw = dressed("\n".join(lines), rng.choice(("plain", "fenced", "chatty")))
            got = task.evaluate_text(instance, raw)
            assert got == reference_evaluation(instance, raw), raw
            kinds.add(
                "parse" if got.parse_error else
                got.constraint_error[:8] if got.constraint_error else got.valid
            )
        assert kinds == {"parse", "expected", "floating", True, False}


class TestHeightsToText:
    def test_matches_the_tensor_serializers(self):
        checked = 0
        for rows, cols in SHAPES:
            for bits in itertools.product((0, 1), repeat=rows * cols):
                projection = np.asarray(bits, dtype=np.uint8).reshape(rows, cols)
                cells = tuple(map(tuple, projection.tolist()))
                for k in (1, 2, 3):
                    for heights in itertools.product(range(k + 2), repeat=sum(bits)):
                        stack = voxel.stack_from_heights(projection, k, heights)
                        assert voxel.texts_from_heights(cells, k, heights) == (
                            voxel.serialize_stack(stack), voxel.canon_stack(stack)
                        )
                        checked += 1
        assert checked > 1000

    def test_admissible_walks_and_draws_match_the_tensor_path(self):
        task = get_task("voxel")
        instance = task.generate(seed=6, level="1", grid=3, height=3, occupied=4)
        proj, k = instance.projection_array, instance.k
        stacks = list(voxel.enumerate_admissible_stacks(proj, k))
        assert list(task.admissible_texts(instance)) == [
            voxel.serialize_stack(s) for s in stacks
        ]
        assert list(task.admissible_keys(instance)) == [
            voxel.canon_stack(s) for s in stacks
        ]
        rng, reference = random.Random(8), random.Random(8)
        for _ in range(50):
            heights = [reference.randint(1, k) for _ in voxel.occupied_columns(proj)]
            assert task.sample_text(instance, rng) == voxel.serialize_stack(
                voxel.stack_from_heights(proj, k, heights)
            )
