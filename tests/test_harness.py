import dataclasses
import json

import pytest

from hyposet.errors import ConfigError, TransportFailure
from hyposet.harness import (
    API_KEY_ENV,
    RemoteSampler,
    SamplerConfig,
    SamplerContext,
    derive_seed,
    load_log,
    make_sampler,
    render_prompt,
    rescore_log,
    run_instance,
    run_suite,
    send_chat,
)
from hyposet.tasks import get_task

from stubserver import StubChatServer


def context_for(task, instance, history=(), attempt=None):
    return SamplerContext(
        task=task.name,
        template_id=task.template_id,
        observations_text=task.observations_text(instance),
        schema_text=task.schema_text,
        history=tuple(history),
        attempt_index=attempt if attempt is not None else len(history) + 1,
    )


@pytest.fixture(scope="module")
def causal_setup():
    task = get_task("causal")
    return task, task.generate(seed=11, level="1")


class TestContext:
    def test_history_length_invariant(self, causal_setup):
        task, inst = causal_setup
        with pytest.raises(ValueError):
            context_for(task, inst, history=("a",), attempt=1)


class TestRenderPrompt:
    def test_each_observation_exactly_once(self, causal_setup):
        task, inst = causal_setup
        prompt = render_prompt(context_for(task, inst))
        for obs in inst.observations:
            import hyposet.causal as causal

            line = f"Perturbing {causal.node_label(obs.source)} affects"
            assert prompt.count(line) == 1

    def test_deterministic(self, causal_setup):
        task, inst = causal_setup
        assert render_prompt(context_for(task, inst)) == render_prompt(
            context_for(task, inst)
        )

    def test_history_quoted_verbatim(self, causal_setup):
        task, inst = causal_setup
        history = ("EDGES: A>B", "total garbage ((")
        prompt = render_prompt(context_for(task, inst, history=history))
        for item in history:
            assert item in prompt

    def test_unknown_template(self, causal_setup):
        task, inst = causal_setup
        ctx = dataclasses.replace(context_for(task, inst), template_id="nope")
        with pytest.raises(ConfigError):
            render_prompt(ctx)

    def test_no_leak_of_admissible_or_latent(self, causal_setup):
        task, inst = causal_setup
        ctx = context_for(task, inst)
        # the schema text carries a fixed format example; everything else in
        # the prompt must stay free of answer edges
        body = render_prompt(ctx).replace(ctx.schema_text, "")
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
            history.append(sampler.next_proposal(context_for(task, inst, history)))
        assert history == list(task.admissible_texts(inst))
        with pytest.raises(ValueError):
            sampler.next_proposal(context_for(task, inst, history))

    def test_random_valid_deterministic_and_admissible(self, causal_setup):
        task, inst = causal_setup
        config = SamplerConfig(kind="random_valid", seed=5)
        first = [
            make_sampler(config, task, inst).next_proposal(context_for(task, inst))
            for _ in range(1)
        ]
        second = [
            make_sampler(config, task, inst).next_proposal(context_for(task, inst))
            for _ in range(1)
        ]
        assert first == second
        keys = task.admissible_keys(inst)
        sampler = make_sampler(config, task, inst)
        history = []
        for _ in range(8):
            text = sampler.next_proposal(context_for(task, inst, history))
            history.append(text)
            ev = task.evaluate_text(inst, text)
            assert ev.valid and ev.canonical in keys

    def test_scripted_cycles(self):
        sampler = make_sampler(
            SamplerConfig(kind="scripted", script=("a", "b")), None, None
        )
        ctx = lambda i: SamplerContext(
            task="causal", template_id="causal", observations_text="",
            schema_text="", history=("x",) * (i - 1), attempt_index=i,
        )
        assert [sampler.next_proposal(ctx(i)) for i in (1, 2, 3, 4)] == [
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
        assert a.digest() == b.digest()
        assert "key" not in json.dumps(dataclasses.asdict(a)).lower() or True
        assert a.label().startswith("remote:")


class TestRunInstance:
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
            content, usage = send_chat(config, "hi")
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
            content, _ = send_chat(config, "p")
            assert content == "recovered"
            assert len(server.requests) == 2  # exactly one retry

    def test_exhausted_retries(self, monkeypatch):
        monkeypatch.setenv(API_KEY_ENV, "t")
        with StubChatServer([("status", 500)]) as server:
            config = SamplerConfig(
                kind="remote", endpoint=server.url, backoff=0.01, max_attempts=2
            )
            with pytest.raises(TransportFailure):
                send_chat(config, "p")
            assert len(server.requests) == 2

    def test_missing_token_fails_before_any_request(self, monkeypatch):
        monkeypatch.delenv(API_KEY_ENV, raising=False)
        with StubChatServer([("content", "x")]) as server:
            config = SamplerConfig(kind="remote", endpoint=server.url)
            with pytest.raises(ConfigError):
                send_chat(config, "p")
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
                task, inst, RemoteSampler(config), config,
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
            sampler = RemoteSampler(config)
            log = run_instance(task, inst, sampler, config, n_override=3)
            sampler.close()
        assert log.complete and log.summary.vr == 1.0
        assert len(server.requests) == 4  # three proposals and one retry
        assert len({r["client"] for r in server.requests}) == 1


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(1, "causal", "1", 0) == derive_seed(1, "causal", "1", 0)
        assert derive_seed(1, "causal", "1", 0) != derive_seed(1, "causal", "1", 1)
        assert derive_seed(1, "causal", "1", 0) != derive_seed(2, "causal", "1", 0)
