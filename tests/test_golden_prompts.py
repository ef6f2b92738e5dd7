"""Golden request digests: one remote run per task must send byte-identical
request bodies.

Each run answers from a scripted mix served by ``stubserver``: a valid
reply, a multiline voxel reply, one 503 that is retried, a duplicate of the
first reply and an unparseable one, then a second valid reply. So the later
prompts quote every kind of emission in their history, multiline text
included. A fourth, adversarial causal run answers with text that JSON
must escape: quotes, backslashes, tabs, CR LF, NUL and other C0 controls,
U+2028, non-ASCII and non-BMP characters, a lone surrogate, and the literal
template markers; its config's model name holds a quote and a marker too.
``prompt_digests.json`` holds the sha256 of every request body the stub
receives, keyed by ``<run>/<request number>``, from 1. A change that alters
a prompt on purpose rewrites that file with

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
# replies whose every character JSON escapes or passes in its own way; the
# stub sends the lone surrogate as the escape \ud800
ADVERSARIAL = (
    'say "hi" \\ back\\slash\tand a tab\r\nthen CR LF',
    "NUL \x00, C0 \x01\x08\x0b\x0c\x1b\x1f, DEL \x7f, U+2028 \u2028 and \u00e9",
    "emoji \U0001f600, lone surrogate \ud800",
    "{{history}} and {{observations}} as literal text",
)
GOLDEN = os.path.join(os.path.dirname(__file__), "prompt_digests.json")


def run_digests(key, task, instance, script, **config):
    """Run ``task`` remotely over ``instance`` for five proposals against a
    stub serving ``script``; return the complete run's log and {``key``/n:
    sha256} of every request body."""
    with StubChatServer(script) as server:
        config = SamplerConfig(kind="remote", endpoint=server.url, max_attempts=2,
                               backoff=0.0, **config)
        sampler = make_sampler(config, task, instance)
        try:
            log = run_instance(task, instance, sampler, config, n_override=5)
        finally:
            sampler.close()
    assert log.complete
    return log, {
        f"{key}/{number}": hashlib.sha256(request["raw"]).hexdigest()
        for number, request in enumerate(server.requests, start=1)
    }


def request_digests() -> dict[str, str]:
    """Run each task's scripted remote run, then the adversarial one, and
    return {key: sha256} of every request body. The auth token must be set
    and no proxy may be."""
    digests = {}
    for name, level, seed in RUNS:
        task = get_task(name)
        instance = task.generate(seed=seed, level=level)
        first, second = list(task.admissible_texts(instance))[:2]
        script = [("content", first), ("content", VOXEL_REPLY), ("status", 503),
                  ("content", first), ("content", "no idea, sorry"),
                  ("content", second)]
        log, run = run_digests(name, task, instance, script, model="stub-model",
                               temperature=0.7, max_tokens=256)
        assert [r.category for r in log.records][2:4] == [
            "duplicate_exact", "parse_failure"
        ]
        digests.update(run)
    task = get_task("causal")
    instance = task.generate(seed=11, level="1")
    script = [("content", ADVERSARIAL[0]), ("content", ADVERSARIAL[1]),
              ("status", 503), ("content", ADVERSARIAL[2]),
              ("content", ADVERSARIAL[3]), ("content", ADVERSARIAL[0])]
    log, run = run_digests("adversarial", task, instance, script,
                           model='a "quoted" {{history}} model',
                           temperature=0.25, max_tokens=64)
    assert [r.raw_text for r in log.records] == [*ADVERSARIAL, ADVERSARIAL[0]]
    digests.update(run)
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
