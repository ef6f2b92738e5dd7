import csv
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from hyposet import harness
from hyposet.cli import ENTROPY_COLUMNS, SUMMARY_COLUMNS, SuiteConfig, main
from hyposet.errors import LogFormatError
from hyposet.harness import API_KEY_ENV, derive_seed
from hyposet.tasks import get_task


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def run_cli(*argv):
    return main(list(argv))


class TestGen:
    def test_writes_instances(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli(
            "gen", "--task", "causal", "--nodes", "4", "--count", "5",
            "--seed", "7", "--out", str(out),
        )
        assert code == 0
        files = sorted((out / "instances").glob("*.json"))
        assert len(files) == 5
        data = json.loads(files[0].read_text())
        assert data["task"] == "causal" and data["n"] == 4
        assert data["admissible"]
        assert "config_digest" in data

    def test_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["gen", "--task", "bool", "--difficulty", "basic", "--count", "2",
                "--seed", "3", "--deterministic"]
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        for name in sorted(os.listdir(a / "instances")):
            assert (a / "instances" / name).read_bytes() == (
                b / "instances" / name
            ).read_bytes()

    def test_run_logs_the_instances_gen_writes(self, tmp_path):
        flags = ["--task", "voxel", "--difficulty", "1,3", "--count", "2",
                 "--seed", "5", "--out", str(tmp_path), "--deterministic"]
        assert run_cli("gen", *flags) == 0
        assert run_cli("run", *flags, "--sampler", "oracle") == 0
        written = []
        for path in sorted((tmp_path / "instances").iterdir()):
            data = json.loads(path.read_text())
            del data["config_digest"]
            written.append(data)
        logged = [
            json.loads(log.read_text().split("\n", 1)[0])["instance"]
            for log in sorted((tmp_path / "logs").iterdir())
        ]
        assert [data["id"] for data in written] == [
            "voxel-tp1-000", "voxel-tp1-001", "voxel-tp3-000", "voxel-tp3-001",
        ]
        assert logged == written

    def test_voxel_tp3_count(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(
            "gen", "--task", "voxel", "--tp", "3", "--count", "3",
            "--seed", "1", "--out", str(out),
        ) == 0
        for path in (out / "instances").glob("*.json"):
            assert json.loads(path.read_text())["count"] == 27

    def test_usage_error(self):
        assert run_cli("gen", "--task", "sudoku") == 1

    def test_unknown_difficulty(self, tmp_path):
        code = run_cli(
            "gen", "--task", "causal", "--difficulty", "9",
            "--out", str(tmp_path / "x"),
        )
        assert code == 3


class TestValidate:
    @pytest.fixture()
    def instance_file(self, tmp_path):
        out = tmp_path / "o"
        run_cli("gen", "--task", "causal", "--nodes", "3", "--count", "1",
                "--seed", "2", "--out", str(out))
        return next((out / "instances").glob("*.json"))

    def test_valid_exit_zero(self, instance_file, capsys):
        data = json.loads(instance_file.read_text())
        canon = data["admissible"][0]
        text = "EDGES: " + ", ".join(canon.split(";")) if canon else "EDGES: none"
        assert run_cli("validate", str(instance_file), text) == 0
        out = capsys.readouterr().out
        assert "valid" in out and canon in out

    def test_parse_failure_exit_two(self, instance_file, capsys):
        assert run_cli("validate", str(instance_file), "EDGES: A>>B") == 2
        assert "parse_failure" in capsys.readouterr().out

    def test_constraint_violation_exit_two(self, instance_file, capsys):
        assert run_cli("validate", str(instance_file), "EDGES: A>B, B>A") == 2
        assert "constraint_violation" in capsys.readouterr().out

    def test_hypothesis_from_file(self, instance_file, tmp_path):
        hyp = tmp_path / "h.txt"
        hyp.write_text("EDGES: A>>B")
        assert run_cli("validate", str(instance_file), f"@{hyp}") == 2

    def test_malformed_instance_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("validate", str(bad), "EDGES: none") == 3

    @pytest.mark.parametrize(
        "latent, message",
        [("A>B;B>A", "edge set contains a cycle"),
         ("A>Z", "label outside the 3-node instance: A>Z")],
    )
    def test_instance_whose_latent_is_malformed(
        self, instance_file, tmp_path, capsys, latent, message
    ):
        # a bad instance file is a runtime error, not a "not valid" verdict
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**json.loads(instance_file.read_text()), "latent": latent}))
        capsys.readouterr()
        assert run_cli("validate", str(bad), "EDGES: none") == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "content, message",
        [
            ("[]", "an instance is a JSON object, not list"),
            ('{"task": "causal"}', "instance has no 'n' field"),
        ],
    )
    def test_instance_file_of_the_wrong_shape(self, tmp_path, capsys, content, message):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        assert run_cli("validate", str(bad), "EDGES: none") == 3
        assert capsys.readouterr().err == f"error: {message}\n"


class TestRun:
    def test_oracle_summary_all_ones(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli(
            "run", "--task", "bool", "--difficulty", "basic", "--count", "2",
            "--seed", "5", "--sampler", "oracle", "--out", str(out),
            "--deterministic",
        )
        assert code == 0
        rows = read_csv(out / "summary.csv")
        assert len(rows) == 2
        assert list(rows[0]) == SUMMARY_COLUMNS
        for row in rows:
            assert float(row["vr"]) == 1.0
            assert float(row["nr"]) == 1.0
            assert float(row["rr"]) == 1.0
            assert row["sampler"].startswith("oracle:")
        entropy = read_csv(out / "entropy_series.csv")
        assert {r["instance_id"] for r in entropy} == {r["instance_id"] for r in rows}

    def test_scripted_repeater_rr(self, tmp_path):
        script = tmp_path / "repeat.txt"
        out = tmp_path / "o"
        # bool-basic instances always admit the target itself; repeat one
        # admissible emission and watch RR pin at 1/|H_O|
        from hyposet.harness import derive_seed
        from hyposet.tasks import get_task

        task = get_task("bool")
        inst = task.generate(derive_seed(5, "bool", "basic", 0), index=0, level="basic")
        script.write_text(next(iter(task.admissible_texts(inst))) + "\n")
        code = run_cli(
            "run", "--task", "bool", "--difficulty", "basic", "--count", "1",
            "--seed", "5", "--sampler", "scripted", "--script", str(script),
            "--out", str(out), "--deterministic",
        )
        assert code == 0
        row = read_csv(out / "summary.csv")[0]
        h = int(row["h_o_size"])
        assert float(row["rr"]) == pytest.approx(1 / h)

    def test_scripted_voxel_multiline_emissions(self, tmp_path):
        from hyposet.harness import derive_seed
        from hyposet.tasks import get_task

        task = get_task("voxel")
        inst = task.generate(derive_seed(2, "voxel", "1", 0), index=0, level="1")
        texts = list(task.admissible_texts(inst))  # |H_O| = 3 multiline blocks
        out = tmp_path / "o"

        # a single multiline block, no separator: stays one emission
        single = tmp_path / "single.txt"
        single.write_text(texts[0] + "\n")
        assert run_cli(
            "run", "--task", "voxel", "--difficulty", "1", "--count", "1",
            "--seed", "2", "--sampler", "scripted", "--script", str(single),
            "--out", str(out), "--deterministic",
        ) == 0
        row = read_csv(out / "summary.csv")[0]
        assert float(row["vr"]) == 1.0 and int(row["parse_failures"]) == 0

        # blocks separated by --- lines: full coverage
        multi = tmp_path / "multi.txt"
        multi.write_text("\n---\n".join(texts) + "\n")
        assert run_cli(
            "run", "--task", "voxel", "--difficulty", "1", "--count", "1",
            "--seed", "2", "--sampler", "scripted", "--script", str(multi),
            "--out", str(out), "--deterministic",
        ) == 0
        row = read_csv(out / "summary.csv")[0]
        assert float(row["rr"]) == 1.0

    def test_run_from_config_file(self, tmp_path):
        config = {
            "task": "causal",
            "difficulty": ["1"],
            "count": 1,
            "seed": 9,
            "out": str(tmp_path / "o"),
            "deterministic": True,
            "sampler": {"kind": "oracle"},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run_cli("run", "--config", str(path)) == 0
        assert (tmp_path / "o" / "summary.csv").exists()
        saved = json.loads((tmp_path / "o" / "config.json").read_text())
        assert saved["digest"] == SuiteConfig(**{k: v for k, v in config.items()}).digest()


    def test_a_runs_config_json_replays_it(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run_cli(
            "run", "--task", "voxel", "--tp", "2", "--count", "2", "--seed", "4",
            "--sampler", "random", "--n", "12", "--out", str(first),
            "--deterministic",
        ) == 0
        config = str(first / "config.json")
        assert run_cli("gen", "--config", config, "--out", str(second)) == 0
        assert len(list((second / "instances").glob("*.json"))) == 2
        assert run_cli("run", "--config", config, "--out", str(second)) == 0
        logs = sorted(p.name for p in (first / "logs").glob("*.jsonl"))
        assert len(logs) == 2
        assert sorted(p.name for p in (second / "logs").glob("*.jsonl")) == logs
        names = ["summary.csv", "entropy_series.csv", *(f"logs/{n}" for n in logs)]
        for name in names:
            assert (second / name).read_bytes() == (first / name).read_bytes()

    def test_overlong_bool_emission_is_recorded(self, tmp_path):
        script = tmp_path / "chain.txt"
        script.write_text("EXPR: " + " AND ".join(["x"] * 334) + "\n")
        out = tmp_path / "o"
        assert run_cli(
            "run", "--task", "bool", "--difficulty", "basic", "--count", "1",
            "--sampler", "scripted", "--script", str(script), "--n", "1",
            "--out", str(out), "--deterministic",
        ) == 0
        (log,) = (out / "logs").glob("*.jsonl")
        lines = [json.loads(l) for l in log.read_text().splitlines()]
        assert lines[1]["category"] == "parse_failure"
        assert lines[-1]["type"] == "summary"
        assert read_csv(out / "summary.csv")[0]["parse_failures"] == "1"

    def test_unknown_sampler_key_is_a_config_error(self, tmp_path, capsys):
        config = {"task": "causal", "difficulty": ["1"], "count": 1,
                  "out": str(tmp_path / "o"),
                  "sampler": {"kind": "random_valid", "sed": 5}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run_cli("run", "--config", str(path)) == 3
        assert "unknown sampler config key 'sed'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("seed", "x"),
            ("seed", True),
            ("seed", 1.5),
            ("max_tokens", "64"),
            ("max_tokens", False),
            ("max_attempts", 0),
            ("max_attempts", None),
            ("max_attempts", 2.0),
            ("backoff", -0.5),
            ("backoff", "1"),
            ("backoff", True),
            ("temperature", "hot"),
            ("temperature", False),
            ("endpoint", 5),
            ("model", ["m"]),
            ("script", "EDGES: none"),
            ("script", ["EDGES: none", 3]),
            ("kind", 7),
        ],
    )
    def test_sampler_value_of_the_wrong_type_is_a_config_error(
        self, tmp_path, capsys, key, value
    ):
        config = {"task": "causal", "difficulty": ["1"], "count": 1,
                  "out": str(tmp_path / "o"),
                  "sampler": {"kind": "oracle", key: value}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run_cli("run", "--config", str(path)) == 3
        assert f"sampler config key {key!r} must be" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_every_sampler_field_has_a_type_rule(self):
        from dataclasses import fields

        from hyposet.cli import _rules

        assert set(_rules("sampler")) == {f.name for f in fields(harness.SamplerConfig)}

    @pytest.mark.parametrize("task", ["causal", "voxel", "bool"])
    def test_every_generator_option_has_a_type_rule(self, task):
        import inspect

        from hyposet.cli import _rules
        from hyposet.tasks import get_task

        parameters = inspect.signature(get_task(task).generate).parameters.values()
        options = {p.name for p in parameters if p.kind is p.KEYWORD_ONLY}
        assert set(_rules(task)) == options

    def test_token_variable_is_not_a_sampler_key(self, tmp_path, capsys):
        config = {"task": "causal", "difficulty": ["1"], "count": 1,
                  "out": str(tmp_path / "o"),
                  "sampler": {"kind": "remote", "api_key_env": "OTHER_TOKEN"}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run_cli("run", "--config", str(path)) == 3
        assert "unknown sampler config key 'api_key_env'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "token, endpoint, message",
        [
            (None, "http://127.0.0.1:9/x", f"needs an auth token in ${API_KEY_ENV}"),
            ("t", None, "needs an endpoint URL"),
        ],
    )
    def test_remote_without_token_or_endpoint_writes_nothing(
        self, tmp_path, capsys, monkeypatch, token, endpoint, message
    ):
        monkeypatch.delenv(API_KEY_ENV, raising=False)
        if token is not None:
            monkeypatch.setenv(API_KEY_ENV, token)
        argv = ["run", "--task", "causal", "--difficulty", "1", "--count", "1",
                "--sampler", "remote", "--out", str(tmp_path / "o")]
        if endpoint is not None:
            argv += ["--endpoint", endpoint]
        assert run_cli(*argv) == 3
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_exhausted_oracle_aborts_the_run_not_the_suite(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli(
            "run", "--task", "causal", "--difficulty", "1", "--count", "2",
            "--sampler", "oracle", "--n", "50", "--out", str(out),
            "--deterministic",
        )
        assert code == 3
        assert read_csv(out / "summary.csv") == []
        logs = sorted((out / "logs").glob("*.jsonl"))
        assert len(logs) == 2
        for log in logs:
            lines = [json.loads(l) for l in log.read_text().splitlines()]
            header, proposals, last = lines[0], lines[1:-1], lines[-1]
            assert last["type"] == "abort" and not last["complete"]
            assert "oracle exhausted" in last["error"]
            assert len(proposals) == len(header["instance"]["admissible"]) < 50
        assert "2 incomplete" in capsys.readouterr().out

    def test_a_second_suite_keeps_the_first_suites_logs(self, tmp_path):
        # two suites into one --out that differ only in --seed; both abort
        # (the oracle runs dry before N = 50) but still leave their logs
        out = tmp_path / "o"
        base = ["run", "--task", "causal", "--difficulty", "1", "--sampler",
                "oracle", "--n", "50", "--out", str(out), "--deterministic"]
        suites = {}
        for seed, count in ((0, 2), (3, 1), (0, 2)):  # the last one reruns
            assert run_cli(*base, "--count", str(count), "--seed", str(seed)) == 3
            suites[json.loads((out / "config.json").read_text())["digest"]] = seed
        assert len(suites) == 2
        found = set()
        for path in (out / "logs").glob("*.jsonl"):
            header = json.loads(path.read_text().splitlines()[0])
            digest, instance_id = header["config_digest"], header["instance_id"]
            assert path.name == f"{instance_id}-{digest}.jsonl"
            index = int(instance_id[-3:])
            seed = derive_seed(suites[digest], "causal", "1", index)
            assert header["instance"]["seed"] == seed
            found.add((suites[digest], index))
        assert found == {(0, 0), (0, 1), (3, 0)}

    def test_sampler_exception_aborts_its_run_only(self, tmp_path, monkeypatch, capsys):
        make_sampler = harness.make_sampler

        class Faulty:
            def __init__(self, sampler):
                self._sampler = sampler

            def next_proposal(self, history):
                if len(history) == 2:
                    raise RuntimeError("sampler fell over")
                return self._sampler.next_proposal(history)

        def faulty_second(config, task, instance):
            sampler = make_sampler(config, task, instance)
            return Faulty(sampler) if instance.instance_id.endswith("-001") else sampler

        monkeypatch.setattr(harness, "make_sampler", faulty_second)
        out = tmp_path / "o"
        assert run_cli(
            "run", "--task", "causal", "--difficulty", "1", "--count", "3",
            "--sampler", "random", "--n", "5", "--out", str(out), "--deterministic",
        ) == 3
        assert "3 instances (1 incomplete)" in capsys.readouterr().out
        logs = sorted((out / "logs").glob("*.jsonl"))
        ends = []
        for log in logs:
            lines = [json.loads(l) for l in log.read_text().splitlines()]
            ends.append((len(lines), lines[-1]["type"]))
        assert ends == [(7, "summary"), (4, "abort"), (7, "summary")]
        last = json.loads(logs[1].read_text().splitlines()[-1])
        assert last["error"] == "RuntimeError: sampler fell over"
        assert [r["instance_id"] for r in read_csv(out / "summary.csv")] == [
            "causal-n4-000", "causal-n4-002",
        ]
        assert run_cli("report", str(out / "logs"), "--out", str(out / "r")) == 0
        assert (out / "r" / "report.md").read_text().endswith(
            "## Skipped logs\n\n"
            f"- `{logs[1].name}`: aborted: RuntimeError: sampler fell over\n"
        )

    @pytest.mark.parametrize(
        "key, value, expected",
        [
            ("count", "2", "an integer"),
            ("count", True, "an integer"),
            ("seed", 1.5, "an integer"),
            ("n_cap", None, "an integer"),
            ("difficulty", "12", "a list of strings"),
            ("difficulty", [1, 2], "a list of strings"),
            ("sampler", "oracle", "an object"),
            ("generate", [], "an object"),
            ("n_override", "5", "an integer"),
            ("n_override", False, "an integer"),
            ("count", 0, "an integer >= 1, not 0"),
            ("n_cap", 0, "an integer >= 1, not 0"),
            ("n_override", 0, "an integer >= 1 or null, not 0"),
            ("--count -2", {}, "config key 'count' must be an integer >= 1, not -2"),
            # generator options: flags, the file's generate section, message
            ("--task causal", {"nodes": "5"},
             "generate config key 'nodes' must be an integer >= 1, not \"5\""),
            ("--task causal", {"nodez": 5}, "unknown generate config key 'nodez'"),
            ("--task voxel", {"occupied": -1},
             "generate config key 'occupied' must be an integer >= 0, not -1"),
            ("--task voxel --nodes 4", {}, "unknown generate config key 'nodes'"),
            ("--task bool --difficulty basic --grid 4", {},
             "unknown generate config key 'grid'"),
        ],
    )
    def test_config_value_of_the_wrong_type_writes_nothing(
        self, tmp_path, capsys, key, value, expected
    ):
        config = {"task": "causal", "difficulty": ["1"], "count": 1,
                  "out": str(tmp_path / "o")}
        flags = []
        if key.startswith("--"):
            flags, config["generate"] = key.split(), value
        else:
            config[key] = value
            expected = f"config key {key!r} must be {expected}"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        for command in ("gen", "run"):
            assert run_cli(command, "--config", str(path), *flags) == 3
            assert expected in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "flags, sampler, expected",
        [
            ([], {"kind": "bogus"}, "unknown sampler kind 'bogus'"),
            (["--sampler", "scripted"], None,
             "scripted sampler needs at least one emission"),
            (["--sampler", "scripted", "--script", "empty.txt"], None,
             "scripted sampler needs at least one emission"),
            ([], {"kind": "scripted", "script": []},
             "scripted sampler needs at least one emission"),
            (["--n-cap", "0"], None, "config key 'n_cap' must be an integer >= 1, not 0"),
            (["--n", "0"], None,
             "config key 'n_override' must be an integer >= 1 or null, not 0"),
        ],
    )
    def test_unusable_sampler_or_run_value_writes_nothing(
        self, tmp_path, capsys, flags, sampler, expected
    ):
        config = {"task": "causal", "difficulty": ["1"], "count": 1,
                  "out": str(tmp_path / "o")}
        if sampler is not None:
            config["sampler"] = sampler
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        (tmp_path / "empty.txt").write_text("\n")
        flags = [str(tmp_path / f) if f.endswith(".txt") else f for f in flags]
        assert run_cli("run", "--config", str(path), *flags) == 3
        assert expected in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_random_alias_in_a_config_file_runs(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"task": "causal", "difficulty": ["1"], "count": 1,
                                    "out": str(tmp_path / "o"),
                                    "sampler": {"kind": "random"}}))
        assert run_cli("run", "--config", str(path), "--deterministic") == 0
        (row,) = read_csv(tmp_path / "o" / "summary.csv")
        assert row["sampler"].startswith("random_valid:")

    def test_random_valid_flag_runs_as_its_alias(self, tmp_path, monkeypatch):
        trees = []
        for kind in ("random", "random_valid"):
            (tmp_path / kind).mkdir()
            monkeypatch.chdir(tmp_path / kind)  # the same relative --out
            assert run_cli("run", "--task", "causal", "--difficulty", "1",
                           "--count", "2", "--sampler", kind, "--out", "o",
                           "--deterministic") == 0
            trees.append({str(p.relative_to("o")): p.read_bytes()
                          for p in sorted(Path("o").rglob("*")) if p.is_file()})
        assert trees[0] == trees[1] and len(trees[0]) == 5

    def test_random_alias_is_one_config_from_a_flag_or_a_file(self, tmp_path, monkeypatch):
        suite = {"task": "causal", "difficulty": ["1"], "count": 2, "deterministic": True}
        flags = ["--task", "causal", "--difficulty", "1", "--count", "2", "--deterministic"]
        written = []
        for source in ("flag", "file"):
            (tmp_path / source).mkdir()
            monkeypatch.chdir(tmp_path / source)  # the same relative --out
            if source == "flag":
                argv = [*flags, "--sampler", "random"]
            else:
                Path("c.json").write_text(json.dumps({**suite, "sampler": {"kind": "random"}}))
                argv = ["--config", "c.json"]
            assert run_cli("run", *argv, "--out", "o") == 0
            logs = sorted(p.name for p in Path("o/logs").iterdir())
            written.append((Path("o/config.json").read_bytes(), logs))
        assert written[0] == written[1] and len(written[0][1]) == 2
        assert json.loads(written[0][0])["sampler"] == {"kind": "random_valid"}

    @pytest.mark.parametrize("from_file", [False, True])
    def test_a_repeated_level_writes_nothing(self, tmp_path, capsys, from_file):
        out = tmp_path / "o"
        if from_file:
            path = tmp_path / "config.json"
            path.write_text(json.dumps({"task": "voxel", "difficulty": ["1", "2", "1"]}))
            flags = ["--config", str(path)]
        else:
            flags = ["--task", "voxel", "--difficulty", "1,2,1"]
        for command in ("gen", "run"):
            assert run_cli(command, *flags, "--count", "1", "--out", str(out)) == 3
            assert capsys.readouterr().err == (
                "error: difficulty '1' is repeated; each level runs once\n"
            )
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, expected",
        [
            ("--task voxel --tp 20",
             "generate config key 'occupied' must be at most grid * grid = 9,"
             " not 20"),
            ("--task voxel --tp 5 --grid 2",
             "generate config key 'occupied' must be at most grid * grid = 4,"
             " not 5"),
            ("--task voxel --grid 1",
             "at difficulty '2', generate config key 'occupied' must be at most"
             " grid * grid = 1, not 2"),
            ("--task causal --nodes 3 --interventions 9",
             "generate config key 'interventions' must be at most nodes = 3,"
             " not 9"),
            ("--task causal --interventions 5",
             "at difficulty '1', generate config key 'interventions' must be at"
             " most nodes = 4, not 5"),
        ],
    )
    def test_generator_limit_between_keys_writes_nothing(
        self, tmp_path, capsys, flags, expected
    ):
        out = tmp_path / "o"
        for command in ("gen", "run"):
            assert run_cli(command, *flags.split(), "--out", str(out)) == 3
            assert expected in capsys.readouterr().err
        # no instances/, config.json or logs/
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags, count",
        [("--task voxel --tp 9", 3 ** 9), ("--task voxel --grid 2 --tp 4", 3 ** 4),
         ("--task causal --nodes 3 --interventions 3", None)],
    )
    def test_generator_limits_admit_their_bound(self, tmp_path, flags, count):
        out = tmp_path / "o"
        assert run_cli("gen", *flags.split(), "--count", "1", "--out", str(out)) == 0
        (path,) = (out / "instances").glob("*.json")
        if count is not None:
            assert json.loads(path.read_text())["count"] == count

    @pytest.mark.parametrize("from_file", [False, True])
    def test_past_the_node_limit_writes_nothing(self, tmp_path, capsys, from_file):
        out = tmp_path / "o"
        if from_file:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(
                {"task": "causal", "count": 1, "generate": {"nodes": 7}}
            ))
            flags = ["--config", str(path)]
        else:
            flags = ["--task", "causal", "--nodes", "7", "--count", "1"]
        for command in ("gen", "run"):
            assert run_cli(command, *flags, "--out", str(out)) == 3
            assert capsys.readouterr().err == (
                "error: generate config key 'nodes' must be at most 6, not 7\n"
            )
        assert not out.exists()

    def test_node_limit_admits_its_bound(self, tmp_path):
        out = tmp_path / "o"
        flags = ["--task", "causal", "--nodes", "6", "--count", "1", "--seed", "3",
                 "--out", str(out)]
        assert run_cli("gen", *flags) == 0
        (path,) = (out / "instances").glob("*.json")
        assert json.loads(path.read_text())["n"] == 6
        assert run_cli("run", *flags, "--n", "2") == 0
        assert len(read_csv(out / "summary.csv")) == 1

    @pytest.mark.parametrize(
        "task, expected",
        [
            ("voxel", "difficulty 'custom' for task voxel needs --tp"
                      " (generate config key 'occupied')"),
            ("causal", "difficulty 'custom' for task causal needs --nodes"
                       " (generate config key 'nodes')"),
            ("bool", "unknown difficulty 'custom' for task bool"),
        ],
    )
    def test_custom_difficulty_without_its_option_writes_nothing(
        self, tmp_path, capsys, task, expected
    ):
        out = tmp_path / "o"
        for command in ("gen", "run"):
            flags = ("--task", task, "--difficulty", "custom", "--out", str(out))
            assert run_cli(command, *flags) == 3
            assert expected in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_gen_checks_the_sampler_section(self, tmp_path, capsys):
        config = {"task": "causal", "difficulty": ["1"], "count": 1,
                  "out": str(tmp_path / "o"), "sampler": {"sed": 5}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        for command in ("gen", "run"):
            assert run_cli(command, "--config", str(path)) == 3
            assert "unknown sampler config key 'sed'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_that_is_not_an_object_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        out = tmp_path / "o"
        assert run_cli("run", "--config", str(path), "--out", str(out)) == 3
        assert "a config file holds one JSON object" in capsys.readouterr().err
        assert not out.exists()


def render_option_table() -> list[str]:
    """README's option table: one row per row of ``cli._OPTIONS``."""
    from hyposet.cli import _OPTIONS

    lines = ["| Section | Key | Flag | Value | Meaning |", "|---|---|---|---|---|"]
    for option in _OPTIONS:
        section = {"suite": "top level", "sampler": "`sampler`"}.get(
            option.section, f"`generate` ({option.section})"
        )
        flag = "—" if option.flag is None else f"`{option.flag}`"
        if option.flag and "gen" not in option.commands.split():
            flag += " (run)"
        lines.append(
            f"| {section} | `{option.key}` | {flag} | {option.rule[2]} | {option.help} |"
        )
    return lines


class TestOptionTable:
    def test_suite_rows_are_the_config_fields(self):
        from dataclasses import fields

        from hyposet.cli import _rules

        assert set(_rules("suite")) == {f.name for f in fields(SuiteConfig)} | {"digest"}

    @pytest.mark.parametrize("command, count", [("gen", 12), ("run", 22)])
    def test_flags_are_the_tables(self, command, count):
        import argparse

        from hyposet.cli import _OPTIONS, build_parser

        (commands,) = [
            action.choices for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        flags = {flag for action in commands[command]._actions
                 for flag in action.option_strings}
        table = {o.flag for o in _OPTIONS if o.flag and command in o.commands.split()}
        assert flags == table | {"--config", "-h", "--help"}
        assert len(flags - {"-h", "--help"}) == count
        keys = [o.key for o in _OPTIONS if o.flag]  # each flag's argparse dest
        assert len(keys) == len(set(keys))

    def test_readme_holds_the_rendered_table(self):
        expected = render_option_table()
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        lines = readme.splitlines()
        table = []
        if expected[0] in lines:
            start = lines.index(expected[0])
            end = next((i for i in range(start, len(lines)) if not lines[i].startswith("|")),
                       len(lines))
            table = lines[start:end]
        assert table == expected, "README's option table should read:\n" + "\n".join(
            expected
        )


class TestReadme:
    def test_readme_lists_the_output_columns(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        text = " ".join(readme.split())
        for intro, columns in (
            ("`summary.csv` columns: `", SUMMARY_COLUMNS),
            ("The entropy series CSV has `", ENTROPY_COLUMNS),
        ):
            assert intro in text
            assert text.split(intro, 1)[1].split("`", 1)[0].split(", ") == columns


class TestReport:
    def test_report_shape(self, tmp_path):
        out = tmp_path / "o"
        run_cli(
            "run", "--task", "voxel", "--difficulty", "1,2", "--count", "2",
            "--seed", "3", "--sampler", "oracle", "--out", str(out),
            "--deterministic",
        )
        code = run_cli("report", str(out / "logs"), "--out", str(out / "report"))
        assert code == 0
        report = (out / "report" / "report.md").read_text()
        assert "| voxel | tp=1 | VR |" in report
        assert "100.00% ± 0.00%" in report
        coverage = read_csv(out / "report" / "coverage.csv")
        assert all(float(r["explored"]) == 1.0 for r in coverage)
        failures = read_csv(out / "report" / "failure_modes.csv")
        assert {r["category"] for r in failures} >= {"valid_novel"}

    def test_report_pure_function_of_logs(self, tmp_path):
        out = tmp_path / "o"
        run_cli(
            "run", "--task", "causal", "--difficulty", "1", "--count", "1",
            "--seed", "1", "--sampler", "oracle", "--out", str(out),
            "--deterministic",
        )
        run_cli("report", str(out / "logs"), "--out", str(out / "r1"))
        run_cli("report", str(out / "logs"), "--out", str(out / "r2"))
        for name in os.listdir(out / "r1"):
            assert (out / "r1" / name).read_bytes() == (out / "r2" / name).read_bytes()

    def test_mixed_samplers_one_column_each(self, tmp_path):
        out = tmp_path / "o"
        base = ["run", "--task", "causal", "--difficulty", "1", "--count", "1",
                "--seed", "4", "--out", str(out), "--deterministic"]
        assert run_cli(*base, "--sampler", "oracle") == 0
        assert run_cli(*base, "--sampler", "random") == 0
        assert run_cli("report", str(out / "logs"), "--out", str(out / "report")) == 0
        header = (out / "report" / "report.md").read_text().splitlines()
        table_header = next(l for l in header if l.startswith("| Task |"))
        assert table_header.count("oracle:") == 1
        assert table_header.count("random_valid:") == 1

    def test_empty_log_dir(self, tmp_path):
        empty = tmp_path / "logs"
        empty.mkdir()
        assert run_cli("report", str(empty)) == 3

    def test_corrupt_logs_are_skipped_and_named(self, tmp_path, capsys):
        out = tmp_path / "o"
        run_cli(
            "run", "--task", "causal", "--difficulty", "1", "--count", "3",
            "--seed", "2", "--sampler", "oracle", "--out", str(out),
            "--deterministic",
        )
        logs = sorted((out / "logs").iterdir())
        assert run_cli("report", str(out / "logs"), "--out", str(out / "clean")) == 0
        assert "Skipped" not in (out / "clean" / "report.md").read_text()
        # one log cut off in the middle of its third line, one without a header
        data = logs[0].read_bytes()
        cut = data.index(b"\n", data.index(b"\n") + 1) + 20
        logs[0].write_bytes(data[:cut])
        logs[1].write_text(logs[1].read_text().split("\n", 1)[1])
        capsys.readouterr()
        assert run_cli("report", str(out / "logs"), "--out", str(out / "report")) == 0
        err = capsys.readouterr().err
        assert f"{logs[0]}: line 3 is not a JSON log record" in err
        assert f"{logs[1]}: missing run header" in err
        report = (out / "report" / "report.md").read_text()
        assert report.endswith(
            "## Skipped logs\n\n"
            f"- `{logs[0].name}`: line 3 is not a JSON log record\n"
            f"- `{logs[1].name}`: missing run header\n"
        )
        clean = (out / "clean" / "report.md").read_text()
        assert report.startswith(clean.split("| causal |")[0])
        logs[2].write_bytes(b"")
        assert run_cli("report", str(out / "logs"), "--out", str(out / "r2")) == 3


    def test_incomplete_logs_are_skipped_and_named(self, tmp_path, capsys):
        out = tmp_path / "o"
        base = ["run", "--task", "causal", "--difficulty", "1", "--seed", "2",
                "--sampler", "oracle", "--out", str(out), "--deterministic"]
        run_cli(*base, "--count", "3")
        assert run_cli("report", str(out / "logs"), "--out", str(out / "clean")) == 0
        # a second suite into the same directory: the exhausted oracle ends
        # both of its logs with an abort line, and the second log then also
        # loses that last line
        assert run_cli(*base, "--count", "2", "--n", "50") == 3
        digest = json.loads((out / "config.json").read_text())["digest"]
        logs = sorted((out / "logs").glob(f"*-{digest}.jsonl"))
        assert len(logs) == 2 and len(list((out / "logs").iterdir())) == 5
        lines = [json.loads(l) for l in logs[0].read_text().splitlines()]
        error = lines[-1]["error"]
        logs[1].write_text("".join(logs[1].read_text().splitlines(True)[:-1]))
        capsys.readouterr()
        assert run_cli("report", str(out / "logs"), "--out", str(out / "report")) == 0
        err = capsys.readouterr().err
        assert f"{logs[0]}: aborted: {error}" in err
        assert f"{logs[1]}: no summary line" in err
        report = (out / "report" / "report.md").read_text()
        assert report.endswith(
            "## Skipped logs\n\n"
            f"- `{logs[0].name}`: aborted: {error}\n"
            f"- `{logs[1].name}`: no summary line\n"
        )
        clean = (out / "clean" / "report.md").read_text()
        assert "Skipped" not in clean
        assert report.startswith(clean.split("| causal |")[0])


    @pytest.mark.parametrize(
        "edit, field",
        [
            ({"vr": 0.5, "rr": 0.123}, "vr"),  # the first field that differs
            ({"rr": 0.123}, "rr"),
            ({"nr": 1.0}, "nr"),
            ({"coverage": 0.5}, "coverage"),
            ({"n": 99}, "n"),
            ({"failure_counts": {"valid_novel": 6}}, "failure_counts"),
            ({"h_o_size": 99}, "rr"),
            ("drop the last proposal line", "n"),
            ("recategorise a duplicate",
             "proposal {n} is recorded duplicate_canonical,"
             " but the lines before it make it duplicate_exact"),
            # an earlier valid line holds its key, so it is not novel
            ("mark a duplicate valid_novel",
             "proposal {n} is recorded valid_novel,"
             " but the lines before it make it duplicate_exact"),
            ({"rr_at_k": [1.0]}, "rr_at_k"),
            ({"c_count": 99}, "c_count"),
            ({"c_entropy_bits": 0.5}, "c_entropy_bits"),
            # no number to check against
            ({"h_o_size": 0}, "summary h_o_size is 0, not an integer >= 1"),
            ("drop every proposal line", "no proposal lines"),
            ("unknown category", "proposal category 'bogus' is unknown"),
            ("drop a valid line's canonical form", "valid records carry a parsed form"),
        ],
    )
    def test_summary_its_proposal_lines_contradict_is_skipped(
        self, tmp_path, capsys, edit, field
    ):
        out = tmp_path / "o"
        assert run_cli(
            "run", "--task", "causal", "--difficulty", "1", "--count", "2",
            "--seed", "1", "--sampler", "random", "--out", str(out),
            "--deterministic",
        ) == 0
        logs = sorted((out / "logs").iterdir())
        # the report over the other, unedited log alone
        alone = tmp_path / "alone"
        alone.mkdir()
        (alone / logs[1].name).write_bytes(logs[1].read_bytes())
        assert run_cli("report", str(alone), "--out", str(tmp_path / "r1")) == 0
        assert "Skipped" not in (tmp_path / "r1" / "report.md").read_text()

        lines = [json.loads(line) for line in logs[0].read_text().splitlines()]
        summary = dict(lines[-1])
        assert lines[-2]["category"] == "duplicate_exact"
        if edit == "drop the last proposal line":
            del lines[-2]
        elif edit == "drop every proposal line":
            lines = [lines[0], lines[-1]]
        elif edit == "recategorise a duplicate":
            lines[-2]["category"] = "duplicate_canonical"
        elif edit == "unknown category":
            lines[-2]["category"] = "bogus"
        elif edit == "drop a valid line's canonical form":
            assert lines[1]["category"] == "valid_novel"
            lines[1]["canonical"] = None
        elif edit == "mark a duplicate valid_novel":
            lines[-2]["category"] = "valid_novel"
            counts = lines[-1]["failure_counts"] = dict(summary["failure_counts"])
            counts["duplicate_exact"] -= 1
            counts["valid_novel"] += 1
        else:
            lines[-1].update(edit)
        logs[0].write_text("".join(json.dumps(line) + "\n" for line in lines))
        if field in summary:
            given = {
                **summary,
                "n": summary["n"] - (edit == "drop the last proposal line"),
                "rr": sum(line.get("category") == "valid_novel" for line in lines)
                / lines[-1]["h_o_size"],
                "failure_counts": {
                    category: sum(line.get("category") == category for line in lines)
                    for category in summary["failure_counts"]
                },
            }[field]
            reason = (
                f"summary {field} is {json.dumps(lines[-1][field], sort_keys=True)},"
                f" but its proposal lines give {json.dumps(given, sort_keys=True)}"
            )
        else:
            reason = field.format(n=summary["n"])
        capsys.readouterr()
        assert run_cli("report", str(out / "logs"), "--out", str(out / "report")) == 0
        assert capsys.readouterr().err == f"warning: skipping {logs[0]}: {reason}\n"
        assert (out / "report" / "report.md").read_text() == (
            (tmp_path / "r1" / "report.md").read_text()
            + f"\n## Skipped logs\n\n- `{logs[0].name}`: {reason}\n"
        )

    @pytest.mark.parametrize(
        "line, field, reason",
        [
            (0, "task", "line 1 has no 'task' string"),
            (0, "difficulty", "line 1 has no 'difficulty' string"),
            (0, "instance_id", "line 1 has no 'instance_id' string"),
            (0, "instance", "line 1 has no 'instance' object"),
            (0, "sampler", "line 1 has no 'sampler' object"),
            (0, "sampler.kind", "line 1 has no sampler 'kind' string"),
            (0, "sampler.digest", "line 1 has no sampler 'digest' string"),
            (2, "category", "line 3 has no 'category' string"),
            (2, "raw", "line 3 has no 'raw' string"),
            (2, "canonical", "line 3 has no 'canonical' string or null"),
            (0, 'task="bogus"', "line 1 names an unknown task 'bogus'"),
            (0, "config_digest=5", "line 1 has a 'config_digest' that is not a string"),
        ],
    )
    def test_log_lacking_a_field_is_skipped(self, tmp_path, capsys, line, field, reason):
        out = tmp_path / "o"
        assert run_cli(
            "run", "--task", "voxel", "--difficulty", "2", "--count", "2",
            "--seed", "3", "--sampler", "random", "--out", str(out),
            "--deterministic",
        ) == 0
        logs = sorted((out / "logs").iterdir())
        alone = tmp_path / "alone"
        alone.mkdir()
        (alone / logs[1].name).write_bytes(logs[1].read_bytes())
        assert run_cli("report", str(alone), "--out", str(tmp_path / "r1")) == 0

        lines = [json.loads(text) for text in logs[0].read_text().splitlines()]
        owner, _, name = field.rpartition(".")
        name, _, value = name.partition("=")
        target = lines[line][owner] if owner else lines[line]
        if value:  # "name=value" sets the field to a JSON value instead of deleting it
            target[name] = json.loads(value)
        else:
            del target[name]
        logs[0].write_text("".join(json.dumps(obj) + "\n" for obj in lines))
        capsys.readouterr()
        assert run_cli("report", str(out / "logs"), "--out", str(out / "report")) == 0
        assert capsys.readouterr().err == f"warning: skipping {logs[0]}: {reason}\n"
        assert (out / "report" / "report.md").read_text() == (
            (tmp_path / "r1" / "report.md").read_text()
            + f"\n## Skipped logs\n\n- `{logs[0].name}`: {reason}\n"
        )
        with pytest.raises(LogFormatError) as caught:
            harness.rescore_log(logs[0])
        assert caught.value.reason == reason

    def test_recount_keys_novelty_as_the_scorer_does(self, tmp_path, capsys):
        # A parse failure whose raw text equals a valid canonical form shares
        # its comparison key: the valid proposal after it is still novel, and
        # the parse failure repeated after that is not.
        out = tmp_path / "o"
        flags = ["--task", "causal", "--nodes", "3", "--count", "1", "--seed", "2",
                 "--out", str(out), "--deterministic"]
        assert run_cli("gen", *flags) == 0
        (path,) = (out / "instances").glob("*.json")
        canon = max(json.loads(path.read_text())["admissible"], key=len)
        script = tmp_path / "script.txt"
        script.write_text("\n".join([
            canon,
            "EDGES: " + ", ".join(canon.split(";")),
            canon,
            "EDGES:" + " , ".join(canon.split(";")),
        ]))
        assert run_cli("run", *flags, "--sampler", "scripted", "--script",
                       str(script), "--n", "4") == 0
        (log,) = (out / "logs").iterdir()
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert [line["category"] for line in lines[1:-1]] == [
            "parse_failure", "valid_novel", "parse_failure", "duplicate_canonical",
        ]
        assert lines[-1]["nr"] == 0.5
        capsys.readouterr()
        assert run_cli("report", str(out / "logs"), "--out", str(out / "r")) == 0
        assert capsys.readouterr().err == ""

    def test_lines_in_an_order_the_rule_does_not_give_are_skipped(self, tmp_path, capsys):
        # Swapping the two duplicates' categories keeps every count of the
        # summary line, so only the line-by-line rule can tell.
        out = tmp_path / "o"
        flags = ["--task", "causal", "--nodes", "3", "--count", "1", "--seed", "2",
                 "--out", str(out), "--deterministic"]
        assert run_cli("gen", *flags) == 0
        (path,) = (out / "instances").glob("*.json")
        canon = max(json.loads(path.read_text())["admissible"], key=len)
        text = "EDGES: " + ", ".join(canon.split(";"))
        script = tmp_path / "script.txt"
        script.write_text("\n".join([text, text, text.replace(" ", "  "), "no edges"]))
        assert run_cli("run", *flags, "--sampler", "scripted", "--script",
                       str(script), "--n", "4") == 0
        (log,) = (out / "logs").iterdir()
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert [line["category"] for line in lines[1:-1]] == [
            "valid_novel", "duplicate_exact", "duplicate_canonical", "parse_failure",
        ]
        lines[2]["category"], lines[3]["category"] = "duplicate_canonical", "duplicate_exact"
        log.write_text("".join(json.dumps(line) + "\n" for line in lines))
        capsys.readouterr()
        assert run_cli("report", str(out / "logs"), "--out", str(out / "r")) == 3
        assert capsys.readouterr().err == (
            f"warning: skipping {log}: proposal 2 is recorded duplicate_canonical,"
            " but the lines before it make it duplicate_exact\n"
            "error: no complete run logs found\n"
        )

    @pytest.mark.parametrize("kind", ["hf/llama", "../../up", "k" * 300])
    def test_any_sampler_kind_writes_inside_the_report_directory(self, tmp_path, kind):
        task = get_task("causal")
        instance = task.generate(3, level="1")
        sampler = harness.make_sampler(harness.SamplerConfig("oracle"), task, instance)
        config = harness.SamplerConfig(kind)
        (tmp_path / "logs").mkdir()
        harness.run_instance(task, instance, sampler, config, deterministic=True,
                             log_path=tmp_path / "logs" / "run.jsonl")
        report = tmp_path / "deep" / "report"
        assert run_cli("report", str(tmp_path / "logs"), "--out", str(report)) == 0
        written = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
        entropy = [p for p in written if p.name.startswith("entropy_series_")]
        assert len(entropy) == 1 and entropy[0].parent == report.relative_to(tmp_path)
        assert len(written) == 5  # the log and the report's four files
        if kind == "hf/llama":
            assert entropy[0].name == f"entropy_series_hf%2Fllama-{config.digest()}.csv"

class TestExitCodes:
    def test_no_command_usage_error(self):
        assert run_cli() == 1

    def test_unknown_flag(self):
        assert run_cli("gen", "--frobnicate") == 1


class TestWithoutNumpy:
    def test_no_path_loads_numpy(self, tmp_path):
        """Every workflow runs in a process where ``import numpy`` fails."""
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
        script = textwrap.dedent(f"""
            import json, os, sys

            class NoNumpy:
                def find_spec(self, name, path=None, target=None):
                    if name.partition(".")[0] == "numpy":
                        raise ImportError("numpy is not installed")

            sys.meta_path.insert(0, NoNumpy())
            import hyposet
            from hyposet.cli import main
            from hyposet.harness import rescore_log
            from hyposet.voxel import texts_from_heights

            out = {str(tmp_path)!r}
            codes = []
            for task, difficulty in (("causal", "1,2"), ("voxel", "1,3"),
                                     ("bool", "basic,extended")):
                base = ["--task", task, "--difficulty", difficulty, "--count", "1",
                        "--seed", "5", "--deterministic"]
                codes.append(main(["gen", *base, "--out", os.path.join(out, task)]))
                for sampler in ("oracle", "random"):
                    dest = os.path.join(out, task + "-" + sampler)
                    codes.append(main(["run", *base, "--sampler", sampler,
                                       "--n", "1", "--out", dest]))
                    logs = os.path.join(dest, "logs")
                    codes.append(main(["report", logs]))
                    for name in sorted(os.listdir(logs)):
                        stored, summary = rescore_log(os.path.join(logs, name))
                        codes.append(int(stored["rr"] != summary.rr))
            instances = os.path.join(out, "voxel", "instances")
            path = os.path.join(instances, sorted(os.listdir(instances))[0])
            with open(path) as fh:
                data = json.load(fh)
            text, _ = texts_from_heights(data["projection"], data["k"], [1] * 3)
            codes.append(main(["validate", path, text]))
            print(set(codes), "numpy" in sys.modules)
        """)
        done = subprocess.run(
            [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src_dir),
            capture_output=True, text=True, timeout=120,
        )
        assert done.stdout.splitlines()[-1] == "{0} False", done.stderr
