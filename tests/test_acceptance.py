"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import itertools
import json
import math
import os
import random
import time

import numpy as np
import pytest

from hyposet import boolexpr, causal, metrics, voxel
from hyposet.cli import main as cli_main
from hyposet.harness import (
    API_KEY_ENV,
    SamplerConfig,
    derive_seed,
    make_sampler,
    run_instance,
)
from hyposet.metrics import TextEvaluation, make_record, score_run
from hyposet.tasks import get_task

from bruteforce import (
    brute_admissible_dag_canons,
    brute_admissible_stack_canons,
    independent_truth_table,
    naive_bool_canon_keys,
    naive_bool_trees,
)

N_CAP = 100


def ok(criterion, detail):
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


def test_criterion_1_voxel_count_claim():
    started = time.perf_counter()
    inst = voxel.generate_voxel_instance(3, 3, 3, seed=1)
    assert inst.count == 27
    stacks = list(voxel.enumerate_admissible_stacks(inst.projection_array, inst.k))
    assert len(stacks) == 27
    assert len({voxel.canon_stack(s) for s in stacks}) == 27
    assert all(voxel.validate_stack(s, inst.projection_array) for s in stacks)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    ok(1, f"tp=3, K=3 instance has exactly 27 valid distinct stacks ({elapsed:.3f}s)")


def test_criterion_2_enumerator_soundness_completeness():
    started = time.perf_counter()

    # causal: every checked instance with n <= 4 equals the 2^(n(n-1)) filter
    rng = random.Random(20)
    causal_checked = 0
    for n in (2, 3, 4):
        for _ in range(4):
            inst = causal.generate_causal_instance(
                n, rng.randint(1, n), rng.randint(0, 10**6)
            )
            assert set(inst.admissible) == brute_admissible_dag_canons(
                inst.observations, n
            )
            causal_checked += 1
    # adversarial extras: single observation, unsatisfiable repeats
    single = [causal.InterventionObservation(0, (0, 1, 0, 0))]
    got = set(causal.enumerate_admissible_dags(single, 4))
    assert got == brute_admissible_dag_canons(single, 4)
    conflicting = [
        causal.InterventionObservation(0, (0, 1)),
        causal.InterventionObservation(0, (0, 0)),
    ]
    assert causal.enumerate_admissible_dags(conflicting, 2) == []
    causal_checked += 2

    # voxel: every projection on 1x1 and 2x2 grids for K = 1..3
    voxel_checked = 0
    for side in (1, 2):
        for k in (1, 2, 3):
            for bits in itertools.product([0, 1], repeat=side * side):
                proj = np.asarray(bits, dtype=np.uint8).reshape(side, side)
                got = {
                    voxel.canon_stack(s)
                    for s in voxel.enumerate_admissible_stacks(proj, k)
                }
                assert got == brute_admissible_stack_canons(proj, k)
                voxel_checked += 1

    # boolean: space equality for d <= 2, and for d = 3 without constants
    # (195,312 naive trees), then filter equality over all 16 truth tables as
    # observation sets
    ops = frozenset({"NOT", "AND", "OR"})
    spaces = [(d, c) for c in (False, True) for d in (0, 1, 2)] + [(3, False)]
    for d, allow_constants in spaces:
        fast = {
            boolexpr.expr_key(e)
            for e in boolexpr.enumerate_exprs(ops, d, allow_constants)
        }
        assert fast == naive_bool_canon_keys(ops, d, allow_constants)
    naive_space = [
        boolexpr.canon_expr(t) for t in naive_bool_trees(ops, 2, False)
    ]
    fast_space = boolexpr.enumerate_exprs(ops, 2, False)
    for table in itertools.product([0, 1], repeat=4):
        obs = [
            boolexpr.PhenotypeObservation(x, y, table[i])
            for i, (x, y) in enumerate(boolexpr.ALL_PAIRS)
        ]
        fast_keys = {
            boolexpr.expr_key(e)
            for e in boolexpr.filter_consistent(fast_space, obs)
        }
        naive_keys = {
            boolexpr.expr_key(e)
            for e in boolexpr.filter_consistent(naive_space, obs)
        }
        assert fast_keys == naive_keys

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    ok(
        2,
        f"enumerators match brute force (causal x{causal_checked}, voxel "
        f"x{voxel_checked}, bool d<=2 and d=3 without constants, with 16 "
        f"filters) in {elapsed:.1f}s",
    )


def test_criterion_3_oracle_ceiling():
    config = SamplerConfig(kind="oracle")
    ceiling_runs = []
    capped_runs = 0
    for task_name in ("causal", "voxel", "bool"):
        task = get_task(task_name)
        for level in task.levels:
            for index in range(2):
                seed = derive_seed(99, task_name, level, index)
                instance = task.generate(seed, index=index, level=level)
                size = task.admissible_count(instance)
                log = run_instance(
                    task,
                    instance,
                    make_sampler(config, task, instance),
                    config,
                    n_cap=N_CAP,
                )
                assert log.summary.vr == 1.0
                assert log.summary.nr == 1.0
                if size <= N_CAP:
                    assert log.summary.rr == 1.0
                    assert all(r.category == "valid_novel" for r in log.records)
                    ceiling_runs.append(
                        {
                            "task": task_name,
                            "difficulty": instance.difficulty,
                            "vr": log.summary.vr,
                            "nr": log.summary.nr,
                            "rr": log.summary.rr,
                        }
                    )
                else:
                    assert log.n == N_CAP
                    assert log.summary.rr == pytest.approx(N_CAP / size)
                    capped_runs += 1
    assert ceiling_runs, "no instance fit under the sampling cap"
    for row in metrics.aggregate(ceiling_runs):
        assert row.formatted == "100.00% ± 0.00%"
    ok(
        3,
        f"oracle scored 100.00% ± 0.00% on all {len(ceiling_runs)} runs with "
        f"|H_O| <= {N_CAP} ({capped_runs} larger runs hit the cap rule exactly)",
    )


def test_criterion_4_mode_collapse_arithmetic():
    # |H_O| = 5: one occupied column with height budget 5
    inst = voxel.generate_voxel_instance(1, 5, 1, seed=0)
    task = get_task("voxel")
    assert task.admissible_count(inst) == 5
    text = next(iter(task.admissible_texts(inst)))
    config = SamplerConfig(kind="scripted", script=(text,))
    log = run_instance(
        task, inst, make_sampler(config, task, inst), config, n_override=5
    )
    assert log.summary.vr == 1.0
    assert log.summary.nr == pytest.approx(0.2)
    assert log.summary.rr == pytest.approx(0.2)
    assert log.summary.rr_at_k == (0.2,) * 5
    ok(4, "scripted repeater on |H_O|=5 scored VR=1, NR=RR=0.2, flat RR@k=0.2")


def _fuzz_records(rng, h_size):
    admissible = frozenset(f"h{i}" for i in range(h_size))
    records = []
    for index in range(1, rng.randint(1, h_size) + 1):
        roll = rng.random()
        if roll < 0.45:
            key = f"h{rng.randint(0, h_size - 1)}"
            ev = TextEvaluation(canonical=key, valid=True)
            raw = f"raw-{key}-{rng.randint(0, 2)}"
        elif roll < 0.6:
            ev = TextEvaluation(canonical=f"z{rng.randint(0, 4)}", valid=False)
            raw = f"bad-{rng.randint(0, 4)}"
        elif roll < 0.75:
            ev = TextEvaluation(parse_error="junk")
            raw = f"garbage-{rng.randint(0, 3)}"
        else:
            ev = TextEvaluation(
                canonical=f"c{rng.randint(0, 3)}", constraint_error="broken"
            )
            raw = f"broken-{rng.randint(0, 3)}"
        records.append(make_record(index, raw, ev, records))
    return records, admissible


def test_criterion_5_metric_identities_fuzzed():
    rng = random.Random(777)
    for _ in range(1000):
        records, admissible = _fuzz_records(rng, rng.randint(1, 40))
        summary = score_run(records, admissible)
        n = len(records)
        assert sum(summary.failure_counts.values()) == n
        assert summary.rr <= summary.nr + 1e-15
        recovered = sum(
            1 for r in records if r.valid and r.novel and r.parsed in admissible
        )
        assert summary.rr * len(admissible) == pytest.approx(recovered, abs=1e-12)
        curve = summary.rr_at_k
        assert len(curve) == n
        assert all(a <= b for a, b in zip(curve, curve[1:]))
        assert curve[-1] == summary.rr
    ok(5, "category partition, RR<=NR, RR*|H_O| count, and RR@k shape held on 1000 fuzzed runs")


def test_criterion_6_canonicalizer_algebra():
    ops = frozenset({"NOT", "AND", "OR"})

    def canon_key(text):
        return boolexpr.expr_key(boolexpr.canon_expr(boolexpr.parse_expr(text)))

    assert canon_key("y AND x") == canon_key("x AND y")
    assert canon_key("x AND x") == canon_key("x")
    assert canon_key("(x AND y) AND x") == canon_key("x AND y")

    # idempotence plus soundness over every raw tree, exhaustively for d <= 2
    for tree in naive_bool_trees(ops, 2, True):
        once = boolexpr.canon_expr(tree)
        assert boolexpr.expr_key(boolexpr.canon_expr(once)) == boolexpr.expr_key(once)
        assert boolexpr.truth_table(once) == independent_truth_table(tree)

    # d = 3: every enumerated form arises by composing depth<=2 forms; verify
    # each composition's canonical result against independently combined
    # truth tables, so canonical equality can never merge two functions
    level2 = boolexpr.enumerate_exprs(ops, 2, True)
    tables = {boolexpr.expr_key(e): independent_truth_table(e) for e in level2}
    checked = 0
    for a in level2:
        ta = tables[boolexpr.expr_key(a)]
        na = boolexpr.canon_expr(boolexpr.Not(a))
        assert boolexpr.truth_table(na) == tuple(1 - v for v in ta)
        checked += 1
        for b in level2:
            tb = tables[boolexpr.expr_key(b)]
            for name, combine in (("AND", min), ("OR", max)):
                composed = boolexpr.canon_expr(boolexpr.Op(name, (a, b)))
                expected = tuple(combine(u, v) for u, v in zip(ta, tb))
                assert boolexpr.truth_table(composed) == expected
                checked += 1
    ok(
        6,
        f"canonicalizer idempotent and truth-table-sound ({checked} depth-3 "
        f"compositions plus exhaustive d<=2 trees)",
    )


def test_criterion_7_entropy_and_telescoping():
    def records_from(pattern_keys):
        records = []
        for i, key in enumerate(pattern_keys, start=1):
            ev = TextEvaluation(canonical=key, valid=True)
            records.append(make_record(i, f"raw{i}", ev, records))
        return records

    records = records_from(["a", "a", "b"])
    h3 = metrics.pattern_entropy(records)
    direct = -(2 / 3 * math.log2(2 / 3) + 1 / 3 * math.log2(1 / 3))
    assert abs(h3 - direct) < 1e-9
    assert abs(h3 - 0.9183) < 5e-5

    rng = random.Random(4242)
    for _ in range(1000):
        keys = [f"p{rng.randint(0, 9)}" for _ in range(rng.randint(1, 64))]
        records = records_from(keys)
        series = metrics.info_gain_series(records)
        assert abs(sum(series) - metrics.pattern_entropy(records)) < 1e-12
    ok(7, "H3(a,a,b)=0.9183 bits and sum(dI)=H_T to 1e-12 on 1000 fuzzed runs")


def test_criterion_8_round_trip_on_enumerated_sets():
    checked = 0
    # causal sets from criterion 2 scales
    rng = random.Random(8)
    task = get_task("causal")
    for n in (2, 3, 4):
        inst = causal.generate_causal_instance(n, rng.randint(1, n), rng.randint(0, 99))
        for canon in inst.admissible:
            text = causal.edges_text_from_canon(canon)
            ev = task.evaluate_text(inst, text)
            assert ev.canonical == canon
            checked += 1
    # voxel sets at the criterion-1/2 scales
    for proj, k in (([[1, 1]], 2), ([[1, 0], [0, 1]], 3), ([[1, 1, 1]], 3)):
        for stack in voxel.enumerate_admissible_stacks(proj, k):
            canon = voxel.canon_stack(stack)
            reparsed = voxel.parse_layers(voxel.serialize_stack(stack))
            assert voxel.canon_stack(reparsed) == canon
            checked += 1
    # boolean d <= 2 spaces
    ops = frozenset({"NOT", "AND", "OR"})
    for allow_constants in (False, True):
        for expr in boolexpr.enumerate_exprs(ops, 2, allow_constants):
            text = boolexpr.serialize_expr(expr)
            back = boolexpr.canon_expr(boolexpr.parse_expr(text))
            assert boolexpr.expr_key(back) == boolexpr.expr_key(expr)
            assert boolexpr.depth(boolexpr.parse_expr(text)) <= 2
            checked += 1
    ok(8, f"serialize -> parse -> canonicalize was the identity on {checked} hypotheses")


def test_criterion_9_reproducibility(tmp_path):
    config = {
        "task": "causal",
        "difficulty": ["1", "2"],
        "count": 2,
        "seed": 31,
        "deterministic": True,
        "sampler": {"kind": "random_valid"},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    def execute(out_dir):
        assert cli_main(["gen", "--config", str(config_path), "--out", str(out_dir)]) == 0
        assert cli_main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 0
        assert (
            cli_main(
                ["report", str(out_dir / "logs"), "--out", str(out_dir / "report")]
            )
            == 0
        )

    first, second = tmp_path / "one", tmp_path / "two"
    execute(first)
    execute(second)

    compared = 0
    for root, _, files in os.walk(first):
        for name in sorted(files):
            if name == "config.json":
                continue  # embeds the differing output path by design
            path_a = os.path.join(root, name)
            path_b = path_a.replace(str(first), str(second), 1)
            with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
                assert fa.read() == fb.read(), f"{name} differs between executions"
            compared += 1
    assert compared >= 8  # instances + logs + CSVs + report artifacts
    ok(9, f"two gen+run+report executions produced {compared} byte-identical files")


def test_criterion_10_remote_sampler_plumbing(monkeypatch):
    from stubserver import StubChatServer

    monkeypatch.setenv(API_KEY_ENV, "stub-token")
    # three nodes, one observation (perturbing A affects exactly B): the
    # free edges C>A and C>B leave four admissible networks
    observations = (causal.InterventionObservation(0, (0, 1, 0)),)
    admissible = tuple(causal.enumerate_admissible_dags(observations, 3))
    assert len(admissible) == 4
    instance = causal.CausalInstance(
        n=3,
        observations=observations,
        admissible=admissible,
        difficulty="nodes=3",
        instance_id="causal-stub-000",
    )
    task = get_task("causal")
    script = [
        ("content", "EDGES: A>B, C>A"),
        ("content", "EDGES: C>A, A>B"),  # same hypothesis, different surface
        ("content", "my final answer is hard to express"),
        ("status", 429),
        ("content", "EDGES: A>B"),
    ]
    with StubChatServer(script) as server:
        config = SamplerConfig(
            kind="remote",
            endpoint=server.url,
            model="stub-model",
            backoff=0.01,
            max_attempts=3,
        )
        log = run_instance(
            task,
            instance,
            make_sampler(config, task, instance),
            config,
            n_override=4,
        )
        requests_seen = len(server.requests)
    categories = [r.category for r in log.records]
    assert categories == [
        "valid_novel",
        "duplicate_canonical",
        "parse_failure",
        "valid_novel",
    ]
    assert requests_seen == 5  # 4 proposals + exactly one retry
    assert log.token_count == 4 * 7  # provider usage counted per completion
    ok(
        10,
        "stub endpoint run logged {valid_novel, duplicate_canonical, "
        "parse_failure} with exactly one retry",
    )
