"""Golden artifact digests: a small deterministic gen -> run -> report suite
must write byte-identical files.

The suite covers causal level 1, voxel levels 1-3 and bool basic and
extended, each with the oracle and random samplers, and one report over all
of their logs. ``golden_digests.json`` holds the sha256 of every file the
suite writes, keyed by its path under the suite's directory. A change that
alters an artifact on purpose rewrites that file with

    PYTHONPATH=src python3 tests/test_golden.py > tests/golden_digests.json

and says in its description which artifacts changed and why.
"""

import hashlib
import json
import os
import shutil
import sys
import tempfile

from hyposet.cli import main

SUITES = (("causal", "1"), ("voxel", "1,2,3"), ("bool", "basic,extended"))
GOLDEN = os.path.join(os.path.dirname(__file__), "golden_digests.json")


def build_suite(root) -> dict[str, str]:
    """Run the suite with relative paths under ``root``, which must be the
    working directory, and return {relative path: sha256} of every file."""
    os.makedirs("logs")
    for task, levels in SUITES:
        for sampler in ("oracle", "random"):
            out = f"{task}-{sampler}"
            flags = ["--task", task, "--difficulty", levels, "--count", "2",
                     "--seed", "7", "--out", out, "--deterministic"]
            assert main(["gen", *flags]) == 0
            assert main(["run", *flags, "--sampler", sampler]) == 0
            assert main(["report", f"{out}/logs"]) == 0
            for name in os.listdir(f"{out}/logs"):
                shutil.copy(f"{out}/logs/{name}", "logs")
    assert main(["report", "logs"]) == 0
    digests = {}
    for folder, _, files in os.walk(root):
        for name in files:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                key = os.path.relpath(path, root).replace(os.sep, "/")
                digests[key] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def test_artifacts_match_their_golden_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    digests = build_suite(tmp_path)
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert sorted(digests) == sorted(golden)
    changed = sorted(path for path in golden if digests[path] != golden[path])
    assert changed == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        os.chdir(root)
        with open(os.devnull, "w") as quiet:
            stdout, sys.stdout = sys.stdout, quiet
            try:
                digests = build_suite(root)
            finally:
                sys.stdout = stdout
    print(json.dumps(digests, indent=1, sort_keys=True))
