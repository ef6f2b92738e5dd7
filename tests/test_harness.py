import dataclasses
import http.client
import importlib.resources
import json
import os
import socket
import ssl
import subprocess
import sys
import textwrap

import pytest

from hyposet import harness
from hyposet.errors import ConfigError, TransportFailure
from hyposet.harness import (
    API_KEY_ENV,
    RemoteSampler,
    SamplerConfig,
    chat_body,
    derive_seed,
    history_line,
    load_log,
    make_sampler,
    prompt_base,
    render_prompt,
    rescore_log,
    run_instance,
    run_suite,
    send_chat,
)
from hyposet.tasks import get_task

from stubserver import StubChatServer

PROXY_VARIABLES = ("http_proxy", "https_proxy", "no_proxy")


def prompt_for(task, instance, history=()):
    lines = [history_line(i, text) for i, text in enumerate(history, 1)]
    return render_prompt(prompt_base(task, instance), lines)


@pytest.fixture(scope="module")
def causal_setup():
    task = get_task("causal")
    return task, task.generate(seed=11, level="1")


class TestRenderPrompt:
    def test_each_observation_exactly_once(self, causal_setup):
        task, inst = causal_setup
        prompt = prompt_for(task, inst)
        for obs in inst.observations:
            import hyposet.causal as causal

            line = f"Perturbing {causal.node_label(obs.source)} affects"
            assert prompt.count(line) == 1

    def test_deterministic(self, causal_setup):
        task, inst = causal_setup
        assert prompt_for(task, inst) == prompt_for(task, inst)

    def test_history_quoted_verbatim(self, causal_setup):
        task, inst = causal_setup
        history = ("EDGES: A>B", "total garbage ((")
        prompt = prompt_for(task, inst, history=history)
        for item in history:
            assert item in prompt

    def test_unknown_template(self, causal_setup, monkeypatch):
        task, inst = causal_setup
        monkeypatch.setattr(task, "template_id", "nope")
        with pytest.raises(ConfigError):
            prompt_base(task, inst)
        with pytest.raises(ConfigError):
            prompt_base(task, inst)

    def test_template_read_once(self, causal_setup, monkeypatch):
        task, inst = causal_setup
        harness._template.cache_clear()
        reads = []
        files = importlib.resources.files
        monkeypatch.setattr(
            importlib.resources, "files", lambda pkg: reads.append(pkg) or files(pkg)
        )
        prompts = {prompt_for(task, inst) for _ in range(3)}
        assert len(prompts) == 1 and len(reads) == 1

    def test_no_leak_of_admissible_or_latent(self, causal_setup):
        task, inst = causal_setup
        # the schema text carries a fixed format example; everything else in
        # the prompt must stay free of answer edges
        body = prompt_for(task, inst).replace(task.schema_text, "")
        for canon in inst.admissible:
            for edge in canon.split(";"):
                if edge:
                    assert edge not in body
        assert "admissible" not in body.lower()


class TestSamplers:
    def test_oracle_emits_each_once(self, causal_setup):
        task, inst = causal_setup
        sampler = make_sampler(SamplerConfig(kind="oracle"), task, inst)
        history = []
        for _ in range(task.admissible_count(inst)):
            history.append(sampler.next_proposal(history))
        assert history == list(task.admissible_texts(inst))
        with pytest.raises(ValueError):
            sampler.next_proposal(history)

    def test_random_valid_deterministic_and_admissible(self, causal_setup):
        task, inst = causal_setup
        config = SamplerConfig(kind="random_valid", seed=5)
        first = [
            make_sampler(config, task, inst).next_proposal([])
            for _ in range(1)
        ]
        second = [
            make_sampler(config, task, inst).next_proposal([])
            for _ in range(1)
        ]
        assert first == second
        keys = task.admissible_keys(inst)
        sampler = make_sampler(config, task, inst)
        history = []
        for _ in range(8):
            text = sampler.next_proposal(history)
            history.append(text)
            ev = task.evaluate_text(inst, text)
            assert ev.valid and ev.canonical in keys

    def test_scripted_cycles(self):
        sampler = make_sampler(
            SamplerConfig(kind="scripted", script=("a", "b")), None, None
        )
        assert [sampler.next_proposal(["x"] * i) for i in range(4)] == [
            "a", "b", "a", "b",
        ]

    def test_scripted_empty_rejected(self):
        with pytest.raises(ConfigError):
            make_sampler(SamplerConfig(kind="scripted", script=()), None, None)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            make_sampler(SamplerConfig(kind="psychic"), None, None)

    def test_config_digest_stable_and_secretless(self):
        a = SamplerConfig(kind="remote", endpoint="http://e", model="m")
        b = SamplerConfig(kind="remote", endpoint="http://e", model="m")
        assert a.digest() == b.digest() == "fa70a8453163"
        assert "key" not in json.dumps(dataclasses.asdict(a)).lower()
        assert a.label().startswith("remote:")


class TestRunInstance:
    def test_each_call_gets_the_runs_one_history_list(self, causal_setup):
        task, inst = causal_setup
        config = SamplerConfig(
            kind="scripted", script=("EDGES: A>B", "no", "EDGES: none")
        )
        scripted = make_sampler(config, task, inst)
        calls = []

        class Recording:
            def next_proposal(self, history):
                calls.append((history, list(history)))
                return scripted.next_proposal(history)

        log = run_instance(task, inst, Recording(), config, n_override=7)
        raws = [record.raw_text for record in log.records]
        assert len(calls) == 7 and type(calls[0][0]) is list
        for attempt, (history, seen) in enumerate(calls, start=1):
            assert history is calls[0][0]
            assert seen == raws[: attempt - 1]

    def test_oracle_ceiling(self, causal_setup, tmp_path):
        task, inst = causal_setup
        config = SamplerConfig(kind="oracle")
        log = run_instance(
            task, inst, make_sampler(config, task, inst), config,
            log_path=tmp_path / "run.jsonl", deterministic=True,
        )
        assert log.complete and log.n == task.admissible_count(inst)
        assert (log.summary.vr, log.summary.nr, log.summary.rr) == (1.0, 1.0, 1.0)
        assert all(r.category == "valid_novel" for r in log.records)

    def test_repeater_rr(self):
        task = get_task("voxel")
        inst = task.generate(seed=3, level="2")  # |H_O| = 9
        text = next(iter(task.admissible_texts(inst)))
        config = SamplerConfig(kind="scripted", script=(text,))
        log = run_instance(
            task, inst, make_sampler(config, task, inst), config, n_override=9
        )
        assert log.summary.vr == 1.0
        assert log.summary.rr == pytest.approx(1 / 9)
        assert log.summary.nr == pytest.approx(1 / 9)

    def test_cap_rule_on_huge_set(self):
        task = get_task("voxel")
        inst = task.generate(seed=0, level="1", grid=4, height=3, occupied=13)
        assert task.admissible_count(inst) == 3 ** 13  # ~1.6M
        config = SamplerConfig(kind="random_valid", seed=1)
        log = run_instance(task, inst, make_sampler(config, task, inst), config)
        assert log.n == 100
        assert log.summary.vr == 1.0

    def test_commuted_expression_is_canonical_duplicate(self):
        # the same program written both ways around is one hypothesis
        from hyposet import boolexpr

        obs = tuple(
            boolexpr.PhenotypeObservation(x, y, x & y)
            for x, y in boolexpr.ALL_PAIRS
        )
        space = boolexpr.enumerate_exprs(boolexpr.DEFAULT_OPS, 2)
        inst = boolexpr.BoolInstance(
            ops=boolexpr.DEFAULT_OPS,
            depth_bound=2,
            allow_constants=False,
            observations=obs,
            admissible=boolexpr.filter_consistent(space, obs),
            difficulty="basic",
            instance_id="bool-and-table",
        )
        task = get_task("bool")
        config = SamplerConfig(
            kind="scripted", script=("EXPR: x AND y", "EXPR: y AND x")
        )
        log = run_instance(
            task, inst, make_sampler(config, task, inst), config, n_override=2
        )
        assert [r.category for r in log.records] == [
            "valid_novel",
            "duplicate_canonical",
        ]
        assert log.records[0].parsed == log.records[1].parsed

    def test_scripted_garbage_becomes_parse_failure(self, causal_setup):
        task, inst = causal_setup
        first = next(iter(task.admissible_texts(inst)))
        config = SamplerConfig(kind="scripted", script=(first, "garbage"))
        log = run_instance(
            task, inst, make_sampler(config, task, inst), config, n_override=2
        )
        assert [r.category for r in log.records] == ["valid_novel", "parse_failure"]

    def test_jsonl_structure_and_rescore(self, causal_setup, tmp_path):
        task, inst = causal_setup
        config = SamplerConfig(kind="random_valid", seed=9)
        path = tmp_path / "log.jsonl"
        log = run_instance(
            task, inst, make_sampler(config, task, inst), config,
            log_path=path, deterministic=True,
        )
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["type"] == "run_header"
        assert lines[0]["sampler"]["digest"] == config.digest()
        assert "started_at" not in lines[0]
        proposals = [l for l in lines if l["type"] == "proposal"]
        assert [p["index"] for p in proposals] == list(range(1, log.n + 1))
        assert lines[-1]["type"] == "summary"
        stored, recomputed = rescore_log(path)
        assert stored["vr"] == recomputed.vr
        assert stored["nr"] == recomputed.nr
        assert stored["rr"] == recomputed.rr
        assert stored["coverage"] == recomputed.coverage
        assert stored["rr_at_k"] == list(recomputed.rr_at_k)
        assert stored["failure_counts"] == recomputed.failure_counts
        assert stored["c_count"] == recomputed.c_count
        assert stored["c_entropy_bits"] == recomputed.c_entropy_bits

    def test_exhausted_oracle_is_an_abort(self, causal_setup, tmp_path):
        task, inst = causal_setup
        count = task.admissible_count(inst)
        config = SamplerConfig(kind="oracle")
        path = tmp_path / "run.jsonl"
        log = run_instance(
            task, inst, make_sampler(config, task, inst), config,
            n_override=count + 1, log_path=path,
        )
        assert not log.complete and log.summary is None
        assert len(log.records) == count
        last = json.loads(path.read_text().splitlines()[-1])
        assert last["type"] == "abort" and "oracle exhausted" in last["error"]

    def test_token_count_accumulates(self, causal_setup):
        task, inst = causal_setup
        text = next(iter(task.admissible_texts(inst)))
        config = SamplerConfig(kind="scripted", script=(text,))
        log = run_instance(
            task, inst, make_sampler(config, task, inst), config, n_override=3
        )
        assert log.token_count == 3 * len(text.split())


class TestRunSuite:
    def test_oracle_suite_all_perfect(self, tmp_path):
        logs = run_suite(
            "causal", ["1", "2"], 2, SamplerConfig(kind="oracle"), seed=4,
            out_dir=tmp_path, deterministic=True,
        )
        assert len(logs) == 4
        for log in logs:
            assert (log.summary.vr, log.summary.nr, log.summary.rr) == (1, 1, 1)
        assert len(list(tmp_path.glob("*.jsonl"))) == 4

    def test_deterministic_suites_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir(), b.mkdir()
        config = SamplerConfig(kind="random_valid")
        run_suite("bool", ["basic"], 2, config, seed=1, out_dir=a, deterministic=True)
        run_suite("bool", ["basic"], 2, config, seed=1, out_dir=b, deterministic=True)
        names = sorted(p.name for p in a.glob("*.jsonl"))
        assert len(names) == 2
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_suite_sampler_digest_is_suite_level(self, tmp_path):
        # derived per-run seeds must not splinter the sampler identity
        config = SamplerConfig(kind="random_valid")
        logs = run_suite(
            "causal", ["1"], 2, config, seed=6, out_dir=tmp_path, deterministic=True
        )
        assert {log.sampler_digest for log in logs} == {config.digest()}

    def test_token_totals_add_up(self):
        logs = run_suite(
            "causal", ["1"], 3, SamplerConfig(kind="oracle"), seed=2,
        )
        assert sum(log.token_count for log in logs) == sum(
            len(r.raw_text.split()) for log in logs for r in log.records
        )

    def test_three_levels_three_each_gives_nine_logs(self):
        logs = run_suite(
            "causal", ["1", "2", "3"], 3, SamplerConfig(kind="oracle"), seed=13,
        )
        assert len(logs) == 9
        for log in logs:
            assert log.summary.vr == 1.0 and log.summary.nr == 1.0
            if log.h_o_size <= log.n_cap:
                assert log.summary.rr == 1.0


class TestSendChat:
    def test_echo(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "test-token")
        with StubChatServer([("content", "hello there")]) as server:
            config = SamplerConfig(
                kind="remote", endpoint=server.url, model="stub", backoff=0.01
            )
            content, usage = send_chat(config, chat_body(config, "hi"))
            assert content == "hello there"
            assert usage["total_tokens"] == 7
            assert server.requests[0]["auth"] == "Bearer test-token"
            assert server.requests[0]["body"]["messages"][0]["content"] == "hi"

    def test_retry_on_429(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "t")
        with StubChatServer([("status", 429), ("content", "recovered")]) as server:
            config = SamplerConfig(
                kind="remote", endpoint=server.url, backoff=0.01, max_attempts=3
            )
            content, _ = send_chat(config, chat_body(config, "p"))
            assert content == "recovered"
            assert len(server.requests) == 2  # exactly one retry

    def test_retry_on_408(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "t")
        with StubChatServer([("status", 408), ("content", "recovered")]) as server:
            config = SamplerConfig(
                kind="remote", endpoint=server.url, backoff=0.01, max_attempts=3
            )
            assert send_chat(config, chat_body(config, "p"))[0] == "recovered"
            assert len(server.requests) == 2

    @pytest.mark.parametrize("status", [400, 401, 403, 404, 301, 307])
    def test_client_error_fails_at_once(self, monkeypatch, status):
        monkeypatch.setenv(API_KEY_ENV, "t")
        with StubChatServer([("status", status), ("content", "never")]) as server:
            config = SamplerConfig(
                kind="remote", endpoint=server.url, backoff=0.01, max_attempts=3
            )
            with pytest.raises(TransportFailure, match=f"HTTP {status}"):
                send_chat(config, chat_body(config, "p"))
            assert len(server.requests) == 1

    def test_exhausted_retries(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "t")
        with StubChatServer([("status", 500)]) as server:
            config = SamplerConfig(
                kind="remote", endpoint=server.url, backoff=0.01, max_attempts=2
            )
            with pytest.raises(TransportFailure):
                send_chat(config, chat_body(config, "p"))
            assert len(server.requests) == 2

    def test_missing_token_fails_before_any_request(self, monkeypatch):
        monkeypatch.delenv(API_KEY_ENV, raising=False)
        with StubChatServer([("content", "x")]) as server:
            config = SamplerConfig(kind="remote", endpoint=server.url)
            with pytest.raises(ConfigError):
                send_chat(config, chat_body(config, "p"))
            assert server.requests == []

    def test_transport_abort_preserves_partial_log(self, monkeypatch, tmp_path):
        monkeypatch.setenv(API_KEY_ENV, "t")
        task = get_task("causal")
        inst = task.generate(seed=11, level="1")
        first = next(iter(task.admissible_texts(inst)))
        with StubChatServer([("content", first), ("status", 500)]) as server:
            config = SamplerConfig(
                kind="remote", endpoint=server.url, backoff=0.01, max_attempts=2
            )
            path = tmp_path / "partial.jsonl"
            log = run_instance(
                task, inst, RemoteSampler(config, task, inst), config,
                n_override=3, log_path=path,
            )
        assert not log.complete and log.summary is None
        assert len(log.records) == 1
        parsed = load_log(path)
        assert not parsed["complete"]
        assert len(parsed["proposals"]) == 1


    def test_remote_run_reuses_one_connection(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "t")
        task = get_task("causal")
        inst = task.generate(seed=11, level="1")
        texts = list(task.admissible_texts(inst))[:3]
        script = [("content", texts[0]), ("status", 503)] + [
            ("content", t) for t in texts[1:]
        ]
        with StubChatServer(script) as server:
            config = SamplerConfig(
                kind="remote", endpoint=server.url, backoff=0.01, max_attempts=3
            )
            sampler = RemoteSampler(config, task, inst)
            log = run_instance(task, inst, sampler, config, n_override=3)
            sampler.close()
        assert log.complete and log.summary.vr == 1.0
        assert len(server.requests) == 4  # three proposals and one retry
        assert len({r["client"] for r in server.requests}) == 1

    def test_remote_run_reads_the_token_once(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "t")
        reads = []
        remote_headers = SamplerConfig.remote_headers

        def counted(config):
            reads.append(config)
            return remote_headers(config)

        monkeypatch.setattr(SamplerConfig, "remote_headers", counted)
        task = get_task("causal")
        inst = task.generate(seed=11, level="1")
        texts = list(task.admissible_texts(inst))[:3]
        script = [("content", texts[0]), ("status", 503)] + [
            ("content", t) for t in texts[1:]
        ]
        with StubChatServer(script) as server:
            config = SamplerConfig(kind="remote", endpoint=server.url, backoff=0.0)
            sampler = RemoteSampler(config, task, inst)
            log = run_instance(task, inst, sampler, config, n_override=3)
            sampler.close()
        assert log.complete and len(server.requests) == 4
        assert {r["auth"] for r in server.requests} == {"Bearer t"}
        assert reads == [config]


@pytest.fixture
def sleeps(monkeypatch):
    """The delays send_chat sleeps before its retries, recorded, not slept."""
    delays = []
    monkeypatch.setattr(harness.time, "sleep", delays.append)
    return delays


@pytest.fixture
def offline(monkeypatch):
    """Name lookups of anything but 127.0.0.1 fail at once, no proxy is set
    and the auth token is: a test can name a host without reaching a
    network. Returns the (host, port) of every lookup."""
    real = socket.getaddrinfo
    lookups = []

    def lookup(host, port, *args, **kwargs):
        lookups.append((host, port))
        if host != "127.0.0.1":
            raise socket.gaierror(socket.EAI_NONAME, f"no lookups of {host} in tests")
        return real(host, port, *args, **kwargs)

    monkeypatch.setattr(socket, "getaddrinfo", lookup)
    for name in PROXY_VARIABLES:
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    monkeypatch.setenv(API_KEY_ENV, "t")
    return lookups


class TestRetryAfter:
    @pytest.mark.parametrize(
        "status, value, delay",
        [
            (503, "2", 2),
            (429, " 0 ", 0),
            (408, "3600", harness.RETRY_AFTER_CAP_S),
            (503, "Wed, 21 Oct 2015 07:28:00 GMT", 0.25),  # not delta-seconds
            (503, "1.5", 0.25),
            (503, "-1", 0.25),
        ],
    )
    def test_delay_replaces_the_backoff(self, offline, sleeps, status, value, delay):
        script = [("status", status, {"Retry-After": value}), ("content", "ok")]
        with StubChatServer(script) as server:
            config = SamplerConfig(kind="remote", endpoint=server.url, backoff=0.25)
            assert send_chat(config, chat_body(config, "p"))[0] == "ok"
        assert sleeps == [delay]

    def test_each_retry_reads_its_own_response(self, offline, sleeps):
        script = [("status", 503, {"Retry-After": "7"}), ("status", 500),
                  ("content", "ok")]
        with StubChatServer(script) as server:
            config = SamplerConfig(kind="remote", endpoint=server.url, backoff=0.25)
            assert send_chat(config, chat_body(config, "p"))[0] == "ok"
        assert sleeps == [7, 0.5]


class TestTransport:
    def test_connection_dropped_after_each_response_costs_no_attempt(
        self, offline, sleeps
    ):
        task = get_task("causal")
        inst = task.generate(seed=11, level="1")
        texts = list(task.admissible_texts(inst))[:4]
        script = [("content", t) for t in texts]
        with StubChatServer(script, drop_after_response=True) as server:
            config = SamplerConfig(kind="remote", endpoint=server.url, max_attempts=1)
            sampler = RemoteSampler(config, task, inst)
            try:
                log = run_instance(task, inst, sampler, config, n_override=len(texts))
            finally:
                sampler.close()
        assert log.complete and log.summary.vr == 1.0
        assert len(server.requests) == len(texts)
        assert len({r["client"] for r in server.requests}) == len(texts)
        assert sleeps == []

    def test_http_proxy_gets_the_absolute_form_target(self, offline, monkeypatch):
        endpoint = "http://chat.invalid/v1/chat/completions?api-version=1"
        with StubChatServer([("content", "via proxy")]) as server:
            proxy = server.url.split("/v1/")[0].replace("//", "//user:p%40ss@")
            monkeypatch.setenv("http_proxy", proxy)
            config = SamplerConfig(kind="remote", endpoint=endpoint)
            assert send_chat(config, chat_body(config, "p"))[0] == "via proxy"
        assert [r["path"] for r in server.requests] == [endpoint]
        assert server.requests[0]["proxy_auth"] == "Basic dXNlcjpwQHNz"  # user:p@ss
        assert server.requests[0]["auth"] == "Bearer t"

    def test_no_proxy_bypasses_the_proxy(self, offline, monkeypatch, sleeps):
        with StubChatServer([("content", "never")]) as server:
            monkeypatch.setenv("http_proxy", server.url.split("/v1/")[0])
            monkeypatch.setenv("no_proxy", "chat.invalid")
            config = SamplerConfig(
                kind="remote", endpoint="http://chat.invalid/v1/chat/completions"
            )
            with pytest.raises(TransportFailure, match="transport error"):
                send_chat(config, chat_body(config, "p"))
        assert server.requests == []

    def test_refused_port_fails_after_max_attempts(self, offline, sleeps):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        config = SamplerConfig(
            kind="remote", endpoint=f"http://127.0.0.1:{port}/v1", max_attempts=3
        )
        with pytest.raises(TransportFailure, match="3 attempts exhausted.*transport error"):
            send_chat(config, chat_body(config, "p"))
        assert sleeps == [0.5, 1.0]

    @pytest.mark.parametrize(
        "endpoint", ["ftp://chat.invalid/v1", "chat.invalid/v1", "http:///v1"]
    )
    def test_endpoint_must_be_an_http_url(self, offline, endpoint):
        config = SamplerConfig(kind="remote", endpoint=endpoint)
        with pytest.raises(ConfigError, match="not an http"):
            send_chat(config, chat_body(config, "p"))
        assert offline == []

    @pytest.mark.parametrize(
        "endpoint, target",
        [
            ("http://[::1]/v1", ("::1", 80)),
            ("https://[::1]/v1", ("::1", 443)),
            ("http://chat.invalid:8080/v1", ("chat.invalid", 8080)),
        ],
    )
    def test_connects_to_the_endpoint_port(self, offline, sleeps, endpoint, target):
        config = SamplerConfig(kind="remote", endpoint=endpoint, max_attempts=1)
        with pytest.raises(TransportFailure, match="transport error"):
            send_chat(config, chat_body(config, "p"))
        assert offline == [target]

    def test_https_verifies_the_server(self, offline, monkeypatch, sleeps):
        contexts = []
        init = http.client.HTTPSConnection.__init__

        def recording(self, *args, context=None, **kwargs):
            contexts.append(context)
            init(self, *args, context=context, **kwargs)

        monkeypatch.setattr(http.client.HTTPSConnection, "__init__", recording)
        config = SamplerConfig(
            kind="remote", endpoint="https://chat.invalid/v1", max_attempts=1
        )
        with pytest.raises(TransportFailure, match="transport error"):
            send_chat(config, chat_body(config, "p"))
        (context,) = contexts
        assert context.verify_mode == ssl.CERT_REQUIRED and context.check_hostname

    def test_https_tunnels_through_the_proxy(self, offline, monkeypatch, sleeps):
        # the stub answers CONNECT with 501, which ends the tunnel attempt
        with StubChatServer([("content", "never")]) as server:
            monkeypatch.setenv("https_proxy", server.url.split("/v1/")[0])
            config = SamplerConfig(
                kind="remote", endpoint="https://chat.invalid/v1", max_attempts=1
            )
            with pytest.raises(TransportFailure, match="Tunnel connection failed: 501"):
                send_chat(config, chat_body(config, "p"))
        assert server.requests == []

    def test_remote_run_loads_no_third_party_http_client(self, tmp_path):
        tests_dir = os.path.dirname(os.path.abspath(__file__))
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__)))
        script = textwrap.dedent(f"""
            import sys
            from stubserver import StubChatServer
            from hyposet.cli import main
            with StubChatServer([("content", "EDGES: none")]) as server:
                code = main(["run", "--task", "causal", "--difficulty", "1",
                             "--count", "1", "--n", "2", "--sampler", "remote",
                             "--endpoint", server.url, "--out", {str(tmp_path)!r},
                             "--deterministic"])
            print(code, sorted(m for m in ("requests", "urllib3") if m in sys.modules))
        """)
        env = {k: v for k, v in os.environ.items()
               if k.lower() not in PROXY_VARIABLES}
        env.update(PYTHONPATH=os.pathsep.join([src_dir, tests_dir]),
                   **{API_KEY_ENV: "t"})
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.stdout.splitlines()[-1] == "0 []", done.stderr


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(1, "causal", "1", 0) == derive_seed(1, "causal", "1", 0)
        assert derive_seed(1, "causal", "1", 0) != derive_seed(1, "causal", "1", 1)
        assert derive_seed(1, "causal", "1", 0) != derive_seed(2, "causal", "1", 0)
