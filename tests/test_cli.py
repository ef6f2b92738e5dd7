import csv
import json
import os

import pytest

from hyposet.cli import SUMMARY_COLUMNS, SuiteConfig, main


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

    def test_intractable_instances_skipped_with_warning(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli(
            "gen", "--task", "causal", "--nodes", "7", "--count", "2",
            "--seed", "0", "--out", str(out),
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err
        assert "wrote 0 instance files" in captured.out
        assert not list((out / "instances").glob("*.json"))


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


class TestExitCodes:
    def test_no_command_usage_error(self):
        assert run_cli() == 1

    def test_unknown_flag(self):
        assert run_cli("gen", "--frobnicate") == 1
