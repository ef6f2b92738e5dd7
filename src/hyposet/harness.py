"""Sampling protocol: prompt rendering with history, sampler adapters, run
execution with N = |H_O| by default, JSONL persistence, deterministic replay.

Proposals within a run are strictly sequential because each prompt embeds the
full emission history; distinct runs are independent. Every request to a
remote endpoint is stateless, carrying the history inside the prompt.
"""

from __future__ import annotations

import hashlib
import importlib.resources
import json
import os
import time
from dataclasses import dataclass, field, replace

import requests

from . import metrics
from .errors import ConfigError, SamplerExhausted, TransportFailure
from .tasks import get_task

DEFAULT_N_CAP = 100
API_KEY_ENV = "HYPOSPACE_API_KEY"


def derive_seed(*parts) -> int:
    """Stable named sub-seed: hash of the joined parts."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class SamplerContext:
    """Everything a sampler may look at for one attempt."""

    task: str
    template_id: str
    observations_text: str
    schema_text: str
    history: tuple[str, ...]
    attempt_index: int  # 1-based

    def __post_init__(self):
        if len(self.history) != self.attempt_index - 1:
            raise ValueError("history length must be attempt_index - 1")


def render_prompt(context: SamplerContext) -> str:
    """Deterministic prompt: task description, observations, output schema,
    and the verbatim list of prior emissions."""
    resource = importlib.resources.files("hyposet").joinpath(
        "templates", f"{context.template_id}.txt"
    )
    if not resource.is_file():
        raise ConfigError(f"unknown template id {context.template_id!r}")
    template = resource.read_text(encoding="utf-8")
    if context.history:
        history = "\n".join(
            f"{i}. {text}" for i, text in enumerate(context.history, start=1)
        )
    else:
        history = "(none)"
    return (
        template.replace("{{observations}}", context.observations_text)
        .replace("{{schema}}", context.schema_text)
        .replace("{{history}}", history)
    )


@dataclass(frozen=True)
class SamplerConfig:
    """Configuration for one sampler; the remote auth token always comes from
    the environment and is never part of the config or any log."""

    kind: str  # oracle | random_valid | scripted | remote
    seed: int | None = None
    script: tuple[str, ...] | None = None
    endpoint: str | None = None
    model: str | None = None
    temperature: float | None = None
    max_tokens: int | None = None
    max_attempts: int = 3
    backoff: float = 0.5
    api_key_env: str = API_KEY_ENV

    def digest(self) -> str:
        payload = {
            "kind": self.kind,
            "seed": self.seed,
            "script": list(self.script) if self.script is not None else None,
            "endpoint": self.endpoint,
            "model": self.model,
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
            "max_attempts": self.max_attempts,
            "backoff": self.backoff,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def label(self) -> str:
        return f"{self.kind}:{self.digest()}"


def send_chat(
    config: SamplerConfig, prompt: str, session: requests.Session | None = None
) -> tuple[str, dict]:
    """One chat-completions request; returns (content, usage).

    Non-2xx responses and transport errors are retried with exponential
    backoff up to ``max_attempts`` total tries, then raise TransportFailure.
    With a ``session``, requests reuse its kept-alive connection.
    """
    token = os.environ.get(config.api_key_env)
    if not token:
        raise ConfigError(
            f"remote sampling needs an auth token in ${config.api_key_env}"
        )
    if not config.endpoint:
        raise ConfigError("remote sampling needs an endpoint URL")
    payload: dict = {
        "model": config.model or "",
        "messages": [{"role": "user", "content": prompt}],
    }
    if config.temperature is not None:
        payload["temperature"] = config.temperature
    if config.max_tokens is not None:
        payload["max_tokens"] = config.max_tokens
    headers = {"Authorization": f"Bearer {token}"}
    last_error = "no attempt made"
    for attempt in range(config.max_attempts):
        if attempt:
            time.sleep(config.backoff * 2 ** (attempt - 1))
        try:
            response = (session or requests).post(
                config.endpoint, json=payload, headers=headers, timeout=120
            )
        except requests.RequestException as err:
            last_error = f"transport error: {err}"
            continue
        if 200 <= response.status_code < 300:
            try:
                data = response.json()
                content = data["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as err:
                raise TransportFailure(f"malformed completion body: {err}")
            return content, data.get("usage", {}) or {}
        last_error = f"HTTP {response.status_code}: {response.text[:200]}"
    raise TransportFailure(
        f"{config.max_attempts} attempts exhausted; last error: {last_error}"
    )


class OracleSampler:
    """Emits each admissible hypothesis exactly once, in canonical order."""

    def __init__(self, task, instance):
        self._iterator = task.admissible_texts(instance)
        self._cache: list[str] = []

    def next_proposal(self, context: SamplerContext) -> str:
        while len(self._cache) < context.attempt_index:
            try:
                self._cache.append(next(self._iterator))
            except StopIteration:
                raise SamplerExhausted(
                    f"oracle exhausted: attempt {context.attempt_index} is beyond"
                    f" the admissible set of {len(self._cache)}"
                )
        return self._cache[context.attempt_index - 1]


class RandomValidSampler:
    """Seed-deterministic uniform draws from the admissible set, with
    replacement."""

    def __init__(self, task, instance, seed: int):
        import random

        self._task = task
        self._instance = instance
        self._rng = random.Random(seed)

    def next_proposal(self, context: SamplerContext) -> str:
        return self._task.sample_text(self._instance, self._rng)


class ScriptedSampler:
    """Replays a fixed emission list, cycling when the run is longer."""

    def __init__(self, script):
        self._script = tuple(script)
        if not self._script:
            raise ConfigError("scripted sampler needs at least one emission")

    def next_proposal(self, context: SamplerContext) -> str:
        return self._script[(context.attempt_index - 1) % len(self._script)]


class RemoteSampler:
    """One stateless chat request per proposal, all over one HTTP session
    (one kept-alive connection per run); usage counters accumulate."""

    def __init__(self, config: SamplerConfig):
        self._config = config
        self._session = requests.Session()
        self.total_tokens = 0

    def next_proposal(self, context: SamplerContext) -> str:
        content, usage = send_chat(
            self._config, render_prompt(context), session=self._session
        )
        self.total_tokens += int(usage.get("total_tokens", 0) or 0)
        return content

    def close(self):
        """Close the run's HTTP session and its connection."""
        self._session.close()


def make_sampler(config: SamplerConfig, task, instance):
    if config.kind == "oracle":
        return OracleSampler(task, instance)
    if config.kind == "random_valid":
        seed = config.seed if config.seed is not None else 0
        return RandomValidSampler(task, instance, seed)
    if config.kind == "scripted":
        return ScriptedSampler(config.script or ())
    if config.kind == "remote":
        return RemoteSampler(config)
    raise ConfigError(f"unknown sampler kind {config.kind!r}")


@dataclass(frozen=True)
class RunLog:
    """One (instance, sampler, N) execution with its scored summary.

    ``token_count`` sums provider-reported usage for remote runs and falls
    back to whitespace token counts of the emissions for local samplers.
    Incomplete runs (sampler abort) carry no summary and are excluded from
    aggregation by default.
    """

    task: str
    instance_id: str
    difficulty: str
    sampler_kind: str
    sampler_digest: str
    n: int
    n_cap: int
    h_o_size: int
    records: tuple[metrics.ProposalRecord, ...]
    summary: metrics.MetricsSummary | None
    token_count: int
    wall_clock: float | None
    complete: bool
    instance: object = field(repr=False, compare=False, default=None)


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def run_instance(
    task,
    instance,
    sampler,
    sampler_config: SamplerConfig,
    *,
    n_override: int | None = None,
    n_cap: int = DEFAULT_N_CAP,
    log_path=None,
    deterministic: bool = False,
    epsilon: float = 0.0,
    config_digest: str | None = None,
) -> RunLog:
    """Draw N proposals (N = |H_O| capped at ``n_cap`` unless overridden),
    classify each one, and persist the log incrementally as JSONL."""
    count = task.admissible_count(instance)
    n = n_override if n_override is not None else min(count, n_cap)
    if n < 1:
        raise ValueError("a run needs at least one proposal")
    header = {
        "type": "run_header",
        "task": task.name,
        "instance_id": instance.instance_id,
        "difficulty": instance.difficulty,
        "instance": task.to_json(instance),
        "sampler": {"kind": sampler_config.kind, "digest": sampler_config.digest()},
        "n": n,
        "n_cap": n_cap,
        "deterministic": deterministic,
    }
    if config_digest is not None:
        header["config_digest"] = config_digest
    if not deterministic:
        header["started_at"] = time.time()

    writer = open(log_path, "w", encoding="utf-8") if log_path is not None else None
    started = time.perf_counter()
    scorer = metrics.RunScorer(task.admissible_keys(instance))
    observations_text = task.observations_text(instance)
    records: list[metrics.ProposalRecord] = []
    history: list[str] = []
    complete = True
    abort_error = None
    try:
        if writer:
            writer.write(_json_line(header))
            writer.flush()
        for index in range(1, n + 1):
            context = SamplerContext(
                task=task.name,
                template_id=task.template_id,
                observations_text=observations_text,
                schema_text=task.schema_text,
                history=tuple(history),
                attempt_index=index,
            )
            try:
                raw = sampler.next_proposal(context)
            except (TransportFailure, SamplerExhausted) as err:
                complete = False
                abort_error = str(err)
                break
            evaluation = task.evaluate_text(instance, raw)
            record = metrics.make_record(index, raw, evaluation, scorer)
            records.append(record)
            history.append(raw)
            if writer:
                writer.write(
                    _json_line(
                        {
                            "type": "proposal",
                            "index": record.index,
                            "raw": record.raw_text,
                            "category": record.category,
                            "canonical": record.parsed,
                        }
                    )
                )
                writer.flush()

        token_count = getattr(sampler, "total_tokens", None)
        if token_count is None:
            token_count = sum(len(r.raw_text.split()) for r in records)
        wall_clock = None if deterministic else time.perf_counter() - started

        summary = None
        if complete:
            base = metrics.score_run(scorer)
            c_count, c_entropy = metrics.creativity_measures(scorer, epsilon=epsilon)
            summary = replace(
                base,
                c_count=c_count,
                c_entropy_bits=c_entropy,
                token_count=token_count,
            )
            if writer:
                line = {
                    "type": "summary",
                    "vr": summary.vr,
                    "nr": summary.nr,
                    "rr": summary.rr,
                    "coverage": summary.coverage,
                    "rr_at_k": list(summary.rr_at_k),
                    "failure_counts": summary.failure_counts,
                    "c_count": summary.c_count,
                    "c_entropy_bits": summary.c_entropy_bits,
                    "token_count": summary.token_count,
                    "n": n,
                    "h_o_size": count,
                    "complete": True,
                }
                if wall_clock is not None:
                    line["wall_clock"] = wall_clock
                writer.write(_json_line(line))
        elif writer:
            writer.write(
                _json_line({"type": "abort", "error": abort_error, "complete": False})
            )
    finally:
        if writer:
            writer.close()

    return RunLog(
        task=task.name,
        instance_id=instance.instance_id,
        difficulty=instance.difficulty,
        sampler_kind=sampler_config.kind,
        sampler_digest=sampler_config.digest(),
        n=n,
        n_cap=n_cap,
        h_o_size=count,
        records=tuple(records),
        summary=summary,
        token_count=token_count,
        wall_clock=wall_clock,
        complete=complete,
        instance=instance,
    )


def run_suite(
    task_name: str,
    levels,
    instances_per_level: int,
    sampler_config: SamplerConfig,
    seed: int,
    *,
    out_dir=None,
    n_cap: int = DEFAULT_N_CAP,
    n_override: int | None = None,
    deterministic: bool = False,
    config_digest: str | None = None,
    generate_kwargs: dict | None = None,
) -> list[RunLog]:
    """Generate instances deterministically from the suite seed and run each.

    Instance i at level L uses the named sub-seed hash(seed, task, L, i), so
    levels and instances can be regenerated independently.
    """
    task = get_task(task_name)
    logs = []
    for level in levels:
        for index in range(instances_per_level):
            instance_seed = derive_seed(seed, task_name, level, index)
            instance = task.generate(
                instance_seed, index=index, level=level, **(generate_kwargs or {})
            )
            per_run = sampler_config
            if per_run.kind == "random_valid" and per_run.seed is None:
                per_run = replace(
                    per_run, seed=derive_seed(seed, "sampler", instance.instance_id)
                )
            sampler = make_sampler(per_run, task, instance)
            log_path = None
            if out_dir is not None:
                # the suite-level config is the sampler's identity: one digest
                # per suite even when runs derive their own sub-seeds
                log_path = os.path.join(
                    out_dir,
                    f"{instance.instance_id}-{sampler_config.digest()}.jsonl",
                )
            try:
                logs.append(
                    run_instance(
                        task,
                        instance,
                        sampler,
                        sampler_config,
                        n_override=n_override,
                        n_cap=n_cap,
                        log_path=log_path,
                        deterministic=deterministic,
                        config_digest=config_digest,
                    )
                )
            finally:
                if isinstance(sampler, RemoteSampler):
                    sampler.close()
    return logs


def load_log(path) -> dict:
    """Parse one JSONL run log into {header, proposals, summary, complete}."""
    header = None
    proposals = []
    summary = None
    complete = False
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if obj["type"] == "run_header":
                header = obj
            elif obj["type"] == "proposal":
                proposals.append(obj)
            elif obj["type"] == "summary":
                summary = obj
                complete = bool(obj.get("complete", True))
            elif obj["type"] == "abort":
                complete = False
    if header is None:
        raise ValueError(f"{path}: missing run header")
    return {
        "header": header,
        "proposals": proposals,
        "summary": summary,
        "complete": complete and summary is not None,
    }


def rescore_log(path) -> tuple[dict, metrics.MetricsSummary]:
    """Re-run classification over a persisted log's raw emissions.

    Returns (stored summary line, recomputed MetricsSummary); the two must
    agree for any log produced by run_instance.
    """
    from .tasks import load_instance

    log = load_log(path)
    if log["summary"] is None:
        raise ValueError(f"{path}: incomplete log has no summary to check")
    instance = load_instance(log["header"]["instance"])
    task = get_task(log["header"]["task"])
    scorer = metrics.RunScorer(task.admissible_keys(instance))
    for prop in log["proposals"]:
        evaluation = task.evaluate_text(instance, prop["raw"])
        metrics.make_record(prop["index"], prop["raw"], evaluation, scorer)
    base = metrics.score_run(scorer)
    c_count, c_entropy = metrics.creativity_measures(scorer)
    return log["summary"], replace(base, c_count=c_count, c_entropy_bits=c_entropy)
