"""Each of the benchmark's checks passes on the program's output and rejects
a corrupted copy of it.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import checks  # noqa: E402
import mixes  # noqa: E402
from hyposet import cli, harness, metrics  # noqa: E402
from hyposet.tasks import get_task  # noqa: E402


def causal_data(level="1", seed=11):
    task = get_task("causal")
    return task.to_json(task.generate(seed, level=level))


def test_causal_check_passes_and_rejects_a_dropped_dag():
    data = causal_data()
    assert len(data["admissible"]) > 1
    assert checks.check_causal_instance(data) == []
    dropped = dict(data, admissible=[c for c in data["admissible"] if c != data["latent"]])
    problems = checks.check_causal_instance(dropped)
    assert any("latent" in p for p in problems)
    assert any("closed form" in p for p in problems)
    assert any("brute force" in p for p in problems)


def test_causal_check_rejects_a_dag_that_fails_the_observations():
    data = causal_data(level="2", seed=5)
    extra = "A>B;B>A" if "A>B;B>A" not in data["admissible"] else "A>C;C>A"
    corrupted = dict(data, admissible=sorted(data["admissible"] + [extra]))
    assert any("fail the observations" in p for p in checks.check_causal_instance(corrupted))


def test_bool_check_passes_and_rejects_a_dropped_form():
    task = get_task("bool")
    instance = task.generate(3, level="basic")
    data = task.to_json(instance)
    keys = list(instance.admissible_keys)
    assert checks.check_bool_instance(data, keys) == []
    assert any("brute force" in p for p in checks.check_bool_instance(data, keys[1:]))


def test_voxel_check_rejects_a_wrong_count():
    task = get_task("voxel")
    data = task.to_json(task.generate(4, level="3"))
    assert checks.check_voxel_instance(data) == []
    assert checks.check_voxel_instance(dict(data, count=data["count"] - 1))


def classify(task, instance, texts):
    records = []
    for index, raw in enumerate(texts, start=1):
        records.append(metrics.make_record(index, raw, task.evaluate_text(instance, raw), records))
    summary = metrics.score_run(records, task.admissible_keys(instance))
    return [r.category for r in records], {"failure_counts": summary.failure_counts}


def test_scripted_categories_match_the_program_and_a_wrong_count_is_rejected():
    for name, level in (("causal", "2"), ("voxel", "3"), ("bool", "extended")):
        task = get_task(name)
        instance = task.generate(21, level=level)
        data = task.to_json(instance)
        items, expected = mixes.build_mix(name, data, task.admissible_texts(instance), 60, 1)
        texts = [text for kind, text in items if kind == "ok"]
        categories, summary = classify(task, instance, texts)
        assert checks.check_categories(summary, categories, expected) == []
        wrong = list(expected)
        wrong[wrong.index("invalid")] = "valid_novel"
        problems = checks.check_categories(summary, categories, wrong)
        assert any("differ from the script first at proposal" in p for p in problems)
        assert any("category counts" in p for p in problems)


def oracle_log(tmp_path):
    task = get_task("causal")
    instance = task.generate(8, level="3")
    config = harness.SamplerConfig(kind="oracle")
    path = str(tmp_path / "logs" / "run.jsonl")
    os.makedirs(os.path.dirname(path))
    harness.run_instance(task, instance, harness.make_sampler(config, task, instance),
                         config, n_override=10, log_path=path, deterministic=True)
    return path


def as_dict(summary):
    return {"vr": summary.vr, "nr": summary.nr, "rr": summary.rr,
            "coverage": summary.coverage, "rr_at_k": list(summary.rr_at_k),
            "failure_counts": summary.failure_counts, "c_count": summary.c_count,
            "c_entropy_bits": summary.c_entropy_bits}


def test_rescore_check_rejects_a_summary_that_differs(tmp_path):
    stored, rescored = harness.rescore_log(oracle_log(tmp_path))
    assert checks.check_rescore(stored, as_dict(rescored)) == []
    tampered = dict(stored, nr=stored["nr"] - 0.1)
    assert checks.check_rescore(tampered, as_dict(rescored)) == [
        f"re-score differs on nr: stored {tampered['nr']!r}, re-scored {rescored.nr!r}"
    ]


def test_oracle_check_rejects_a_wrong_recovery_rate(tmp_path):
    with open(oracle_log(tmp_path), encoding="utf-8") as fh:
        summary = json.loads(fh.read().splitlines()[-1])
    h_o = summary["h_o_size"]
    assert checks.check_oracle_run(summary, 10, h_o) == []
    assert checks.check_oracle_run(dict(summary, rr=summary["rr"] * 2), 10, h_o)


def test_report_check_rejects_a_wrong_cell(tmp_path):
    path = oracle_log(tmp_path)
    out = str(tmp_path / "report")
    assert cli.main(["report", os.path.dirname(path), "--out", out]) == 0
    with open(os.path.join(out, "report.md"), encoding="utf-8") as fh:
        report = fh.read()
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(l) for l in fh]
    pairs = [(lines[0], lines[-1])]
    assert checks.check_report_cells(report, pairs) == []
    corrupted = report.replace("100.00% ± 0.00%", "99.00% ± 0.00%", 1)
    assert checks.check_report_cells(corrupted, pairs)
