"""Sampling protocol: prompt rendering with history, sampler adapters, run
execution with N = |H_O| by default, JSONL persistence, deterministic replay.

A sampler's ``next_proposal(history)`` gets the run's own list of earlier raw
emissions: the same list on every call of a run, read-only for the sampler,
with ``len(history)`` the attempt number less one. Proposals within a run are
strictly sequential because each prompt embeds the full emission history;
distinct runs are independent. Every request to a remote endpoint is
stateless, carrying the history inside the prompt. Its body is ``chat_body``
of ``render_prompt``'s prompt; JSON escapes a string one character at a time,
so the remote sampler joins the same bytes from pieces it escapes once.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib.resources
import json
import os
import time
import urllib.parse
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from . import metrics
from .errors import ConfigError, LogFormatError, SamplerExhausted, TransportFailure
from .tasks import TASKS, get_task

if TYPE_CHECKING:
    from .transport import ChatConnection

DEFAULT_N_CAP = 100
API_KEY_ENV = "HYPOSPACE_API_KEY"
# the client errors a retry can cure: request timeout, rate limit
RETRIED_4XX = frozenset({408, 429})
# the longest a retry waits on a server's Retry-After
RETRY_AFTER_CAP_S = 60


def derive_seed(*parts) -> int:
    """Stable named sub-seed: hash of the joined parts."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


@functools.lru_cache(maxsize=None)
def _template(template_id: str) -> str:
    """A prompt template's text, read once per process; unknown ids raise
    ConfigError on every call."""
    resource = importlib.resources.files("hyposet").joinpath(
        "templates", f"{template_id}.txt"
    )
    if not resource.is_file():
        raise ConfigError(f"unknown template id {template_id!r}")
    return resource.read_text(encoding="utf-8")


def prompt_base(task, instance) -> str:
    """A run's prompt but for its history: the task's template with the
    instance's observations and the output schema filled in."""
    return (
        _template(task.template_id)
        .replace("{{observations}}", task.observations_text(instance))
        .replace("{{schema}}", task.schema_text)
    )


def history_line(number: int, text: str) -> str:
    """The prompt's line for the ``number``-th earlier emission, from 1."""
    return f"{number}. {text}"


HISTORY_MARKER, HISTORY_SEPARATOR, EMPTY_HISTORY = "{{history}}", "\n", "(none)"


def render_prompt(base: str, history_lines: list[str]) -> str:
    """Deterministic prompt: ``prompt_base`` with the verbatim list of prior
    emissions, one ``history_line`` each."""
    history = HISTORY_SEPARATOR.join(history_lines) or EMPTY_HISTORY
    return base.replace(HISTORY_MARKER, history)


def _json_text(text: str) -> bytes:
    """``text`` as the inside of a JSON string, escaped as ``json.dumps`` does."""
    return json.dumps(text).encode()[1:-1]


@dataclass(frozen=True)
class SamplerConfig:
    """Configuration for one sampler; the remote auth token always comes from
    the environment and is never part of the config or any log."""

    kind: str  # a key of SAMPLERS
    seed: int | None = None
    script: tuple[str, ...] | None = None
    endpoint: str | None = None
    model: str | None = None
    temperature: float | None = None
    max_tokens: int | None = None
    max_attempts: int = 3
    backoff: float = 0.5

    def digest(self) -> str:
        blob = json.dumps(vars(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def label(self) -> str:
        return f"{self.kind}:{self.digest()}"

    def remote_headers(self) -> dict[str, str]:
        """The auth and content-type fields of each remote request, with the
        token read from the environment; a missing token, or an endpoint that
        is not an http(s) URL, raises ConfigError."""
        token = os.environ.get(API_KEY_ENV)
        if not token:
            raise ConfigError(f"remote sampling needs an auth token in ${API_KEY_ENV}")
        if not self.endpoint:
            raise ConfigError("remote sampling needs an endpoint URL")
        url = urllib.parse.urlsplit(self.endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ConfigError(f"remote endpoint {self.endpoint!r} is not an http(s) URL")
        return {"Authorization": f"Bearer {token}", "Content-Type": "application/json"}


def _retry_after(headers: dict) -> int | None:
    """A response's ``Retry-After`` delay in seconds, capped at
    RETRY_AFTER_CAP_S, from its header fields with lower-case names; None
    unless the field holds delta-seconds."""
    value = (headers.get("retry-after") or "").strip()
    if value.isascii() and value.isdigit():
        return min(int(value), RETRY_AFTER_CAP_S)
    return None


def chat_body(config: SamplerConfig, prompt: str) -> bytes:
    """The request body that asks ``config``'s model about ``prompt``."""
    message = {"role": "user", "content": prompt}
    payload: dict = {"model": config.model or "", "messages": [message]}
    if config.temperature is not None:
        payload["temperature"] = config.temperature
    if config.max_tokens is not None:
        payload["max_tokens"] = config.max_tokens
    return json.dumps(payload).encode()


def send_chat(
    config: SamplerConfig, body: bytes, connection: ChatConnection | None = None,
    headers: dict[str, str] | None = None,
) -> tuple[str, dict]:
    """One chat-completions request of a ``chat_body``; returns (content, usage).

    ``usage`` is the response's usage object, or ``{}`` when it has none, it
    is not an object, or its ``total_tokens`` is not an integer.

    Transport errors and 408, 429 and 5xx responses are retried up to
    ``max_attempts`` total tries, then raise TransportFailure. Before each
    retry it sleeps the exponential backoff, or the delay a retried
    response's ``Retry-After`` names (capped at RETRY_AFTER_CAP_S). Any other
    non-2xx status, a 3xx or 4xx that a retry cannot fix, raises
    TransportFailure at once. Requests go over ``connection``, kept alive
    across calls, or over a connection opened for this call alone, and carry
    ``headers``, ``config.remote_headers()`` when not given.
    """
    from . import transport  # only remote sampling loads the HTTP client

    if connection is None:
        with contextlib.closing(transport.ChatConnection(config.endpoint)) as own:
            return send_chat(config, body, own, headers)
    headers = headers or config.remote_headers()
    last_error = "no attempt made"
    delay = None
    for attempt in range(config.max_attempts):
        if attempt:
            time.sleep(config.backoff * 2 ** (attempt - 1) if delay is None else delay)
        delay = None
        try:
            status, response_headers, reply = connection.post(body, headers)
        except transport.ERRORS as err:
            last_error = f"transport error: {err}"
            continue
        if 200 <= status < 300:
            try:
                data = json.loads(reply)
                content = data["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as err:
                raise TransportFailure(f"malformed completion body: {err}")
            if type(content) is not str:
                raise TransportFailure(
                    f"malformed completion body: content is {json.dumps(content)[:200]},"
                    " not a string"
                )
            usage = data.get("usage")
            if type(usage) is not dict or type(usage.get("total_tokens", 0)) is not int:
                usage = {}
            return content, usage
        last_error = f"HTTP {status}: {reply.decode('utf-8', 'replace')[:200]}"
        if status < 500 and status not in RETRIED_4XX:
            raise TransportFailure(f"not retried; {last_error}")
        delay = _retry_after(response_headers)
    raise TransportFailure(
        f"{config.max_attempts} attempts exhausted; last error: {last_error}"
    )


class OracleSampler:
    """Emits each admissible hypothesis exactly once, in canonical order."""

    def __init__(self, config, task, instance):
        self._iterator = task.admissible_texts(instance)
        self._cache: list[str] = []

    def next_proposal(self, history) -> str:
        while len(self._cache) <= len(history):
            try:
                self._cache.append(next(self._iterator))
            except StopIteration:
                raise SamplerExhausted(
                    f"oracle exhausted: attempt {len(history) + 1} is beyond"
                    f" the admissible set of {len(self._cache)}"
                )
        return self._cache[len(history)]


class RandomValidSampler:
    """Seed-deterministic uniform draws from the admissible set, with
    replacement; no seed is seed 0."""

    def __init__(self, config, task, instance):
        import random

        self._task = task
        self._instance = instance
        self._rng = random.Random(config.seed or 0)

    def next_proposal(self, history) -> str:
        return self._task.sample_text(self._instance, self._rng)


class ScriptedSampler:
    """Replays a fixed emission list, cycling when the run is longer."""

    def __init__(self, config, task, instance):
        self._script = tuple(config.script or ())
        if not self._script:
            raise ConfigError("scripted sampler needs at least one emission")

    def next_proposal(self, history) -> str:
        return self._script[len(history) % len(self._script)]


class RemoteSampler:
    """One stateless chat request per proposal, all over one kept-alive
    connection per run; usage counters accumulate.

    A body is the ``chat_body`` of the prompt base, made once per run and
    split at its history marker, joined by the history's lines, each escaped
    once: a history that is the list of the call before (as ``run_instance``
    passes it), no shorter, with the same object where that call's history
    ended, has only its new entries escaped. Any other is escaped anew; two
    lists can share their last entry and still differ."""

    _SEPARATOR, _EMPTY = _json_text(HISTORY_SEPARATOR), _json_text(EMPTY_HISTORY)

    def __init__(self, config, task, instance):
        from .transport import ChatConnection

        self._config = config
        base = prompt_base(task, instance)
        body, markers = chat_body(config, base), base.count(HISTORY_MARKER)
        # the prompt's markers are the body's last: only numbers follow the prompt
        self._parts = body.rsplit(_json_text(HISTORY_MARKER), markers)
        self._connection = ChatConnection(config.endpoint)
        self._headers = None  # read at the first request, then kept for the run
        self._lines: list[bytes] = []  # the escaped lines of the last history
        self._history = None  # that history
        self._last = None  # and its last entry
        self.total_tokens = 0

    def _history_lines(self, history) -> list[bytes]:
        seen = len(self._lines)
        if (
            history is not self._history
            or len(history) < seen
            or (seen and history[seen - 1] is not self._last)
        ):
            self._lines, seen = [], 0
        for number in range(seen + 1, len(history) + 1):
            self._lines.append(_json_text(history_line(number, history[number - 1])))
        self._history = history
        self._last = history[-1] if history else None
        return self._lines

    def next_proposal(self, history) -> str:
        text = self._SEPARATOR.join(self._history_lines(history)) or self._EMPTY
        body = text.join(self._parts)
        if self._headers is None:
            self._headers = self._config.remote_headers()
        content, usage = send_chat(self._config, body, self._connection, self._headers)
        self.total_tokens += usage.get("total_tokens", 0)
        return content

    def close(self):
        """Close the run's connection."""
        self._connection.close()


SAMPLERS = {
    "oracle": OracleSampler,
    "random_valid": RandomValidSampler,
    "scripted": ScriptedSampler,
    "remote": RemoteSampler,
}


def make_sampler(config: SamplerConfig, task, instance):
    """A new sampler of ``config.kind`` for one run over ``instance``."""
    if config.kind not in SAMPLERS:
        raise ConfigError(f"unknown sampler kind {config.kind!r}")
    return SAMPLERS[config.kind](config, task, instance)


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


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def _judge(task, instance, scorer, index, raw) -> metrics.ProposalRecord:
    """Classify one emission into the run's scorer; a raw text the run has
    seen before reuses its evaluation."""
    evaluation = scorer.evaluation_of(raw) or task.evaluate_text(instance, raw)
    return metrics.make_record(index, raw, evaluation, scorer)


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
    config_digest: str | None = None,
) -> RunLog:
    """Draw N proposals (N = |H_O| capped at ``n_cap`` unless overridden),
    classify each one, and persist the log incrementally as JSONL.

    Each ``sampler.next_proposal`` call gets the run's one list of earlier
    raw emissions. An exception from the sampler ends the run with an
    ``abort`` line: the run is incomplete and has no summary."""
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
    scorer = metrics.RunScorer(count)
    records: list[metrics.ProposalRecord] = []
    history: list[str] = []
    complete = True
    abort_error = None
    try:
        if writer:
            writer.write(_json_line(header))
            writer.flush()
        for index in range(1, n + 1):
            try:
                raw = sampler.next_proposal(history)
            except Exception as err:  # a faulty sampler ends its run only
                complete = False
                known = isinstance(err, (TransportFailure, SamplerExhausted))
                abort_error = str(err) if known else f"{type(err).__name__}: {err}"
                break
            record = _judge(task, instance, scorer, index, raw)
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
            summary = replace(metrics.score_run(scorer), token_count=token_count)
            if writer:
                line = {
                    "type": "summary",
                    **vars(summary),
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
    )


def suite_instances(task, levels, count: int, seed: int, generate_kwargs=None):
    """Yield each level's ``count`` instances in order. Instance i at level L
    uses the named sub-seed hash(seed, task, L, i), so levels and instances
    can be regenerated independently."""
    for level in levels:
        for index in range(count):
            instance_seed = derive_seed(seed, task.name, level, index)
            yield task.generate(
                instance_seed, index=index, level=level, **(generate_kwargs or {})
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
    """Run each instance of ``suite_instances`` in turn.

    Each log in ``out_dir`` is named ``<instance id>-<config digest>.jsonl``,
    with the sampler digest when no config digest is given.
    """
    task = get_task(task_name)
    logs = []
    for instance in suite_instances(
        task, levels, instances_per_level, seed, generate_kwargs
    ):
        per_run = sampler_config
        if per_run.kind == "random_valid" and per_run.seed is None:
            per_run = replace(
                per_run, seed=derive_seed(seed, "sampler", instance.instance_id)
            )
        sampler = make_sampler(per_run, task, instance)
        log_path = None
        if out_dir is not None:
            # named by the suite: two suites never share a log file, and
            # runs that derive their own sub-seeds keep one name per suite
            suite = config_digest or sampler_config.digest()
            log_path = os.path.join(out_dir, f"{instance.instance_id}-{suite}.jsonl")
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


_JSON_TYPES = {str: "string", dict: "object", type(None): "null"}
# the fields readers take from each kind of log line, with their JSON types;
# a header's sampler is an object with _SAMPLER_FIELDS
_LINE_FIELDS = {
    "run_header": (
        ("task", (str,)), ("difficulty", (str,)), ("instance_id", (str,)),
        ("instance", (dict,)), ("sampler", (dict,)),
    ),
    "proposal": (("raw", (str,)), ("category", (str,)), ("canonical", (str, type(None)))),
}
_SAMPLER_FIELDS = (("kind", (str,)), ("digest", (str,)))


def _missing_field(obj: dict, fields, prefix: str = "") -> str | None:
    """The first of ``fields`` that ``obj`` lacks or holds with another JSON
    type, named with its types; None when it holds them all."""
    for name, types in fields:
        if type(obj.get(name, ...)) not in types:
            return f"{prefix}{name!r} " + " or ".join(_JSON_TYPES[t] for t in types)
    return None


def load_log(path) -> dict:
    """Parse one JSONL run log into {header, proposals, summary, complete,
    abort}; ``abort`` is the error of an ``abort`` line, else None.

    A line that is not a JSON object with a ``type`` (a log cut off
    mid-line, say), a header or proposal line without a field of
    ``_LINE_FIELDS``, a header naming an unknown task or holding a
    ``config_digest`` that is not a string, or a missing run header raises
    LogFormatError naming the line and the field or task.
    """
    header = None
    proposals = []
    summary = None
    abort = None
    complete = False
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                kind = obj["type"]
                fields = _LINE_FIELDS.get(kind, ())
            except (ValueError, KeyError, TypeError):
                raise LogFormatError(
                    path, f"line {lineno} is not a JSON log record"
                ) from None
            missing = _missing_field(obj, fields)
            if missing is None and kind == "run_header":
                missing = _missing_field(obj["sampler"], _SAMPLER_FIELDS, "sampler ")
            if missing is not None:
                raise LogFormatError(path, f"line {lineno} has no {missing}")
            if kind == "run_header":
                if obj["task"] not in TASKS:
                    raise LogFormatError(
                        path, f"line {lineno} names an unknown task {obj['task']!r}"
                    )
                if type(obj.get("config_digest", "")) is not str:
                    raise LogFormatError(
                        path, f"line {lineno} has a 'config_digest' that is not a string"
                    )
                header = obj
            elif kind == "proposal":
                proposals.append(obj)
            elif kind == "summary":
                summary = obj
                complete = bool(obj.get("complete", True))
            elif kind == "abort":
                complete = False
                abort = obj.get("error", "")
    if header is None:
        raise LogFormatError(path, "missing run header")
    return {
        "header": header,
        "proposals": proposals,
        "summary": summary,
        "complete": complete and summary is not None,
        "abort": abort,
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
    scorer = metrics.RunScorer(task.admissible_count(instance))
    for index, prop in enumerate(log["proposals"], start=1):
        _judge(task, instance, scorer, index, prop["raw"])
    return log["summary"], metrics.score_run(scorer)
