"""Golden request digests: one remote run per task must send byte-identical
request bodies.

Each run answers from a scripted mix served by ``stubserver``: a valid
reply, a multiline voxel reply, one 503 that is retried, a duplicate of the
first reply and an unparseable one, then a second valid reply. So the later
prompts quote every kind of emission in their history, multiline text
included. ``prompt_digests.json`` holds the sha256 of every request body the
stub receives, keyed by ``<task>/<request number>``, from 1. A change that
alters a prompt on purpose rewrites that file with

    PYTHONPATH=src python3 tests/test_golden_prompts.py > tests/prompt_digests.json

and says in its description which prompts changed and why.
"""

import hashlib
import json
import os

from hyposet import harness, transport
from hyposet.harness import API_KEY_ENV, SamplerConfig, make_sampler, run_instance
from hyposet.tasks import get_task

from stubserver import StubChatServer

RUNS = (("causal", "1", 11), ("voxel", "2", 5), ("bool", "basic", 3))
VOXEL_REPLY = "Here is a stack:\nLAYERS:\n10\n01\n\n10\n00\nDone."
GOLDEN = os.path.join(os.path.dirname(__file__), "prompt_digests.json")


def request_digests() -> dict[str, str]:
    """Run each task's scripted remote run and return {key: sha256} of every
    request body. The auth token must be set and no proxy may be."""
    digests = {}
    for name, level, seed in RUNS:
        task = get_task(name)
        instance = task.generate(seed=seed, level=level)
        first, second = list(task.admissible_texts(instance))[:2]
        script = [("content", first), ("content", VOXEL_REPLY), ("status", 503),
                  ("content", first), ("content", "no idea, sorry"),
                  ("content", second)]
        with StubChatServer(script) as server:
            config = SamplerConfig(
                kind="remote", endpoint=server.url, model="stub-model",
                temperature=0.7, max_tokens=256, max_attempts=2, backoff=0.0,
            )
            sampler = make_sampler(config, task, instance)
            try:
                log = run_instance(task, instance, sampler, config, n_override=5)
            finally:
                sampler.close()
        assert log.complete
        assert [r.category for r in log.records][2:4] == [
            "duplicate_exact", "parse_failure"
        ]
        for number, request in enumerate(server.requests, start=1):
            digests[f"{name}/{number}"] = hashlib.sha256(request["raw"]).hexdigest()
    return digests


def test_request_bodies_match_their_golden_digests(monkeypatch):
    monkeypatch.setattr(transport, "TIMEOUT_S", 10)
    for variable in ("http_proxy", "https_proxy", "no_proxy"):
        monkeypatch.delenv(variable, raising=False)
        monkeypatch.delenv(variable.upper(), raising=False)
    monkeypatch.setenv(API_KEY_ENV, "t")
    monkeypatch.setattr(harness.time, "sleep", lambda delay: None)
    digests = request_digests()
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert sorted(digests) == sorted(golden)
    changed = sorted(key for key in golden if digests[key] != golden[key])
    assert changed == []


if __name__ == "__main__":
    for variable in ("http_proxy", "https_proxy", "no_proxy"):
        os.environ.pop(variable, None)
        os.environ.pop(variable.upper(), None)
    os.environ[API_KEY_ENV] = "t"
    print(json.dumps(request_digests(), indent=1, sort_keys=True))
