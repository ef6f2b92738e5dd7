"""Command-line workflows: gen, validate, run, report.

Exit codes: 0 success, 1 usage error, 2 validation verdict "not valid",
3 runtime or transport failure. All randomness flows from the single suite
seed through named sub-seeds, so gen -> run -> report from one config file is
fully reproducible in deterministic mode.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import inspect
import json
import os
import sys
import urllib.parse
from collections import namedtuple
from dataclasses import dataclass, field, replace

from . import causal, harness, metrics
from .errors import ConfigError, EnumerationLimit, LogFormatError, TransportFailure
from .harness import DEFAULT_N_CAP, SamplerConfig, load_log, run_suite, suite_instances
from .tasks import TASKS, difficulty_order, get_task, load_instance

SUMMARY_COLUMNS = [
    "task",
    "difficulty",
    "instance_id",
    "sampler",
    "N",
    "h_o_size",
    "vr",
    "nr",
    "rr",
    "coverage",
    "parse_failures",
    "constraint_violations",
    "invalid",
    "dup_exact",
    "dup_canonical",
    "c_count",
    "c_entropy_bits",
]

ENTROPY_COLUMNS = ["instance_id", "t", "H_t", "delta_I_t"]

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# A rule: (exact JSON types accepted, extra condition, description); exact
# types, so a bool is never a number.
_STRING = ((str,), None, "a string")
_STRINGS = ((list,), lambda v: all(type(s) is str for s in v), "a list of strings")
_AT_LEAST_1 = ((int,), lambda v: v >= 1, "an integer >= 1")
_OBJECT = ((dict,), None, "an object")
_INTEGER_OR_NULL = ((int, type(None)), None, "an integer or null")
_STRING_OR_NULL = ((str, type(None)), None, "a string or null")


# One settable value: its section ("suite", "sampler", or the task whose
# generator takes it), key, flag (None: only a config file sets it), rule,
# help text, and the commands that have the flag.
_Option = namedtuple("_Option", "section key flag rule help commands", defaults=["gen run"])
# Every settable value, one row each. The flags, their merge into the config,
# the config checks and README's option table all derive from these rows.
# Flags merge in row order, and a section's checks follow its keys' order. A
# flag's key is its argparse dest, so no two rows with a flag share a key.
_OPTIONS = tuple(_Option(*row) for row in (
    ("suite", "task", "--task", _STRING, "the task"),
    ("suite", "difficulty", "--difficulty", _STRINGS,
     "levels, each once; all when empty; comma-separated as a flag"),
    ("suite", "count", "--count", _AT_LEAST_1, "instances per level"),
    ("suite", "seed", "--seed", ((int,), None, "an integer"), "seeds every instance and run"),
    ("suite", "out", "--out", _STRING, "output directory"),
    ("suite", "deterministic", "--deterministic", ((bool,), None, "true or false"),
     "no timestamps, so the artifacts are byte-identical"),
    ("suite", "n_cap", "--n-cap", _AT_LEAST_1, "caps N, the admissible set's size", "run"),
    ("suite", "n_override", "--n",
     ((int, type(None)), lambda v: v is None or v >= 1, "an integer >= 1 or null"),
     "N for every run, uncapped", "run"),
    ("suite", "sampler", None, _OBJECT, "the sampler section"),
    ("suite", "generate", None, _OBJECT, "the generator section"),
    ("suite", "digest", None, _STRING, "written by run; recomputed, never read"),
    ("sampler", "kind", "--sampler", _STRING, "random is recorded as random_valid", "run"),
    ("sampler", "seed", None, _INTEGER_OR_NULL, "random_valid; null: derived per instance"),
    ("sampler", "max_tokens", "--max-tokens", _INTEGER_OR_NULL,
     "remote: sent unless null", "run"),
    ("sampler", "max_attempts", "--max-attempts", _AT_LEAST_1,
     "remote: tries per request, the first included", "run"),
    ("sampler", "backoff", "--backoff", ((int, float), lambda v: v >= 0, "a number >= 0"),
     "remote: seconds before the first retry, doubling", "run"),
    ("sampler", "temperature", "--temperature",
     ((int, float, type(None)), None, "a number or null"), "remote: sent unless null", "run"),
    ("sampler", "endpoint", "--endpoint", _STRING_OR_NULL, "remote: an http(s) URL", "run"),
    ("sampler", "model", "--model", _STRING_OR_NULL, "remote: the model name", "run"),
    ("sampler", "script", "--script", _STRINGS,
     "scripted: emissions, cycled; as a flag, a file of them", "run"),
    ("causal", "nodes", "--nodes", _AT_LEAST_1, "node count; sets one custom level"),
    ("causal", "interventions", "--interventions", _AT_LEAST_1,
     "observed interventions; the node count when unset"),
    ("voxel", "occupied", "--tp", ((int,), lambda v: v >= 0, "an integer >= 0"),
     "occupied columns; sets one custom level"),
    ("voxel", "grid", "--grid", _AT_LEAST_1, "grid side"),
    ("voxel", "height", "--height", _AT_LEAST_1, "height budget"),
))

_SAMPLER_ALIASES = {"random": "random_valid"}
# what --sampler and a config's "kind" accept
_SAMPLER_KINDS = sorted([*harness.SAMPLERS, *_SAMPLER_ALIASES])
# the flags that take one of a fixed list of values
_CHOICES = {"task": list(TASKS), "kind": _SAMPLER_KINDS}


def _rules(section: str) -> dict:
    """The rule of each key of ``section``: "suite", "sampler" or a task."""
    return {option.key: option.rule for option in _OPTIONS if option.section == section}


@dataclass
class SuiteConfig:
    """Everything one workflow needs, as a JSON config file holds it; the
    sampler and generator flags fill the ``sampler`` and ``generate``
    sections."""

    task: str = "causal"
    difficulty: list[str] = field(default_factory=list)
    count: int = 3
    seed: int = 0
    out: str = "out"
    deterministic: bool = False
    n_cap: int = DEFAULT_N_CAP
    n_override: int | None = None
    sampler: dict = field(default_factory=lambda: {"kind": "oracle"})
    generate: dict = field(default_factory=dict)

    def digest(self) -> str:
        # the experiment's identity, not its location
        payload = {k: v for k, v in vars(self).items() if k != "out"}
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    @classmethod
    def from_file(cls, path) -> "SuiteConfig":
        """The config in a JSON file; a file that is not one JSON object, or
        a key or value that breaks the suite's rules, is a ConfigError. The
        ``digest`` that ``run`` writes into config.json is dropped, because
        it is always recomputed."""
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError("a config file holds one JSON object")
        _check("", _rules("suite"), data)
        data.pop("digest", None)
        return cls(**data)


def _given(args, sections) -> dict:
    """By key, the values given to the flags of ``sections``, via ``_FROM_FLAG``."""
    return {
        o.key: _FROM_FLAG.get(o.key, lambda v: v)(getattr(args, o.key))
        for o in _OPTIONS
        if o.section in sections and o.flag and getattr(args, o.key, None) is not None
    }


def _config_from_args(args) -> SuiteConfig:
    cfg = SuiteConfig.from_file(args.config) if args.config else SuiteConfig()
    cfg = replace(cfg, **_given(args, ("suite",)))
    task = get_task(cfg.task)
    if not cfg.difficulty:
        cfg.difficulty = list(task.levels)
    custom = _CUSTOM_LEVEL.get(cfg.task)
    for index, level in enumerate(cfg.difficulty):
        if level not in task.levels and not (level == "custom" and custom):
            raise ConfigError(
                f"unknown difficulty {level!r} for task {cfg.task};"
                f" expected one of {list(task.levels)}"
            )
        if level in cfg.difficulty[:index]:
            raise ConfigError(f"difficulty {level!r} is repeated; each level runs once")
    _check("", _rules("suite"), vars(cfg))  # the values the flags set too
    # every task's generator flags, so one of another task is named; a deciding
    # option replaces the level sweep with one "custom" level so ids stay unique
    cfg.generate.update(_given(args, TASKS))
    _check("generate ", _rules(cfg.task), cfg.generate)
    if custom and custom in cfg.generate:
        cfg.difficulty = ["custom"]
    elif custom and "custom" in cfg.difficulty:
        flag = next(o.flag for o in _OPTIONS if (o.section, o.key) == (cfg.task, custom))
        raise ConfigError(
            f"difficulty 'custom' for task {cfg.task} needs {flag}"
            f" (generate config key {custom!r})"
        )
    _check_generate_limits(cfg, task)
    cfg.sampler.update(_given(args, ("sampler",)))
    _check("sampler ", _rules("sampler"), cfg.sampler)
    kind = cfg.sampler.get("kind", "oracle")
    if kind not in _SAMPLER_KINDS:
        raise ConfigError(
            f"unknown sampler kind {kind!r}; expected one of {_SAMPLER_KINDS}"
        )
    if kind in _SAMPLER_ALIASES:  # one spelling, so one config digest
        cfg.sampler["kind"] = kind = _SAMPLER_ALIASES[kind]
    if kind == "scripted" and not cfg.sampler.get("script"):
        raise ConfigError("scripted sampler needs at least one emission (--script)")
    return cfg


def _read_script(path) -> list[str]:
    """One emission per line; blocks separated by '---' lines for multiline
    emissions. A file that is a single multiline block (contains 'LAYERS:'
    but no separator) is kept whole."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines()
    if any(line.strip() == "---" for line in lines):
        blocks, current = [], []
        for line in lines:
            if line.strip() == "---":
                blocks.append("\n".join(current))
                current = []
            else:
                current.append(line)
        blocks.append("\n".join(current))
        return [b.strip("\n") for b in blocks if b.strip()]
    if any(line.strip().startswith("LAYERS:") for line in lines):
        return [text.strip("\n")]
    return [line for line in lines if line.strip()]


# a flag's text as its section holds it, where argparse's value is not that
_FROM_FLAG = {
    "difficulty": lambda text: [d.strip() for d in text.split(",") if d.strip()],
    "script": _read_script,
}

# per task, the generate key that sets a "custom" level
_CUSTOM_LEVEL = {"causal": "nodes", "voxel": "occupied"}


# per task: (option, its bound from the level's options, the bound as text)
# rules, checked at each level by ``_check_generate_limits``
_GENERATE_LIMITS = {
    "causal": (
        ("nodes", lambda option: causal.MAX_ENUM_NODES, ""),
        ("interventions", lambda option: option("nodes"), "nodes = "),
    ),
    "voxel": (
        ("occupied", lambda option: option("grid") ** 2, "grid * grid = "),
    ),
}


def _check(section: str, rules: dict, data: dict) -> None:
    """Raise a ConfigError naming the first key of ``data`` that ``rules``
    lacks or whose value breaks its rule; ``section`` prefixes the message."""
    for key, value in data.items():
        if key not in rules:
            raise ConfigError(f"unknown {section}config key {key!r}")
        types, condition, description = rules[key]
        if type(value) not in types or (condition and not condition(value)):
            raise ConfigError(
                f"{section}config key {key!r} must be {description},"
                f" not {json.dumps(value)}"
            )


def _check_generate_limits(cfg: SuiteConfig, task) -> None:
    """Raise a ConfigError naming the option when, at some level, it exceeds
    the bound ``_GENERATE_LIMITS`` sets. An option not given takes the
    default of ``task.generate``; a default of None stands for the level's
    own parameter (for causal ``nodes`` and ``interventions``, the node
    count)."""
    defaults = inspect.signature(task.generate).parameters
    for level in cfg.difficulty:

        def option(name):
            value = cfg.generate.get(name, defaults[name].default)
            return task.level_params.get(level) if value is None else value

        for key, bound_of, bound_text in _GENERATE_LIMITS.get(cfg.task, ()):
            value, bound = option(key), bound_of(option)
            if value is not None and value > bound:
                where = "" if level == "custom" else f"at difficulty {level!r}, "
                raise ConfigError(
                    f"{where}generate config key {key!r} must be at most"
                    f" {bound_text}{bound}, not {value}"
                )


def _sampler_config(cfg: SuiteConfig) -> SamplerConfig:
    """The sampler section, which ``_config_from_args`` checked, as a
    SamplerConfig. The environment variable holding the auth token is not
    configurable."""
    data = {"kind": "oracle", **cfg.sampler}
    if "script" in data:
        data["script"] = tuple(data["script"])
    return SamplerConfig(**data)


def _dump_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_gen(args) -> int:
    cfg = _config_from_args(args)
    task = get_task(cfg.task)
    instance_dir = os.path.join(cfg.out, "instances")
    os.makedirs(instance_dir, exist_ok=True)
    written = 0
    instances = suite_instances(task, cfg.difficulty, cfg.count, cfg.seed, cfg.generate)
    for instance in instances:
        data = task.to_json(instance)
        data["config_digest"] = cfg.digest()
        _dump_json(os.path.join(instance_dir, f"{instance.instance_id}.json"), data)
        written += 1
    print(f"wrote {written} instance files to {instance_dir}")
    return 0


def cmd_validate(args) -> int:
    with open(args.instance, encoding="utf-8") as fh:
        data = json.load(fh)
    instance = load_instance(data)
    task = get_task(data["task"])
    if args.hypothesis == "-":
        text = sys.stdin.read()
    elif args.hypothesis.startswith("@"):
        with open(args.hypothesis[1:], encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = args.hypothesis
    evaluation = task.evaluate_text(instance, text)
    if evaluation.parse_error is not None:
        print(f"parse_failure: {evaluation.parse_error}")
        return 2
    if evaluation.constraint_error is not None:
        print(f"constraint_violation: {evaluation.constraint_error}")
        return 2
    if not evaluation.valid:
        print("invalid")
        return 2
    print(f"valid\ncanonical: {evaluation.canonical}")
    return 0


def _summary_row(sampler: str, run) -> dict:
    """The SUMMARY_COLUMNS of one run, in order, that ``sampler`` labels:
    ``run`` maps task, difficulty, instance_id, n, h_o_size and each scored
    field of the run's summary line to its value."""
    counts = run["failure_counts"]
    return {
        "task": run["task"],
        "difficulty": run["difficulty"],
        "instance_id": run["instance_id"],
        "sampler": sampler,
        "N": run["n"],
        "h_o_size": run["h_o_size"],
        "vr": run["vr"],
        "nr": run["nr"],
        "rr": run["rr"],
        "coverage": run["coverage"],
        "parse_failures": counts["parse_failure"],
        "constraint_violations": counts["constraint_violation"],
        "invalid": counts["invalid"],
        "dup_exact": counts["duplicate_exact"],
        "dup_canonical": counts["duplicate_canonical"],
        "c_count": run["c_count"],
        "c_entropy_bits": run["c_entropy_bits"],
    }


def _write_csv(path, columns, rows):
    """A CSV file of ``columns`` and ``rows``, each row a sequence of values
    in column order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def _entropy_rows(instance_id, patterns) -> list[tuple]:
    """Entropy series rows over records or their comparison keys."""
    rows = []
    cumulative = 0.0
    for t, delta in enumerate(metrics.info_gain_series(patterns), start=1):
        cumulative += delta
        rows.append((instance_id, t, f"{cumulative:.12g}", f"{delta:.12g}"))
    return rows


def cmd_run(args) -> int:
    cfg = _config_from_args(args)
    sampler_config = _sampler_config(cfg)
    if sampler_config.kind == "remote":
        sampler_config.remote_headers()  # fail before anything is written
    log_dir = os.path.join(cfg.out, "logs")
    os.makedirs(log_dir, exist_ok=True)
    _dump_json(
        os.path.join(cfg.out, "config.json"),
        {**vars(cfg), "digest": cfg.digest()},
    )
    logs = run_suite(
        cfg.task,
        cfg.difficulty,
        cfg.count,
        sampler_config,
        cfg.seed,
        out_dir=log_dir,
        n_cap=cfg.n_cap,
        n_override=cfg.n_override,
        deterministic=cfg.deterministic,
        config_digest=cfg.digest(),
        generate_kwargs=cfg.generate,
    )
    complete = [log for log in logs if log.complete]
    skipped = len(logs) - len(complete)
    _write_csv(
        os.path.join(cfg.out, "summary.csv"),
        SUMMARY_COLUMNS,
        [
            _summary_row(
                f"{log.sampler_kind}:{log.sampler_digest}",
                {**vars(log), **vars(log.summary)},
            ).values()
            for log in complete
        ],
    )
    entropy_rows = []
    for log in complete:
        entropy_rows.extend(_entropy_rows(log.instance_id, log.records))
    _write_csv(os.path.join(cfg.out, "entropy_series.csv"), ENTROPY_COLUMNS, entropy_rows)
    print(
        f"ran {len(logs)} instances ({skipped} incomplete); logs in {log_dir}; "
        f"summary in {os.path.join(cfg.out, 'summary.csv')}"
    )
    return 0 if skipped == 0 else 3


# the scored fields a summary line must state as its proposal lines give
# them, in the order they are checked
_RECOUNTED = (
    "n", "failure_counts", "vr", "nr", "rr", "coverage", "rr_at_k", "c_count",
    "c_entropy_bits",
)


def _recount(log) -> tuple[list[str], str | None]:
    """The comparison key of each proposal line, and why the summary line
    disagrees with those lines (None when it agrees).

    Nothing is judged: each line goes through the run's scorer with the
    evaluation its category states, against the summary's |H_O|. The reason
    is the first line whose category the lines before it do not give, or
    else the first field of ``_RECOUNTED`` that differs; every scored field
    but the token count is recounted."""
    summary = log["summary"]
    size = summary.get("h_o_size")
    if not log["proposals"]:
        return [], "no proposal lines"
    if type(size) is not int or size < 1:
        return [], f"summary h_o_size is {json.dumps(size)}, not an integer >= 1"
    scorer = metrics.RunScorer(size)
    keys = []
    try:
        for number, line in enumerate(log["proposals"], start=1):
            category = line["category"]
            evaluation = metrics.stated_evaluation(line["canonical"], category)
            record = scorer.add(number, line["raw"], evaluation)
            if record.category != category:
                return [], (
                    f"proposal {number} is recorded {category},"
                    f" but the lines before it make it {record.category}"
                )
            keys.append(metrics.record_key(record))
        closed = metrics.score_run(scorer)
    except ValueError as err:
        return [], str(err)
    expected = {**vars(closed), "n": scorer.n, "rr_at_k": list(closed.rr_at_k)}
    for name in _RECOUNTED:
        stated, value = summary.get(name), expected[name]
        if stated != value:
            return keys, (
                f"summary {name} is {json.dumps(stated, sort_keys=True)},"
                f" but its proposal lines give {json.dumps(value, sort_keys=True)}"
            )
    return keys, None


def cmd_report(args) -> int:
    log_dir = args.logs
    out_dir = args.out or os.path.join(os.path.dirname(log_dir.rstrip("/")) or ".", "report")
    paths = sorted(
        os.path.join(log_dir, f)
        for f in os.listdir(log_dir)
        if f.endswith(".jsonl")
    )
    loaded, skipped = [], []
    for path in paths:
        try:
            log = load_log(path)
        except LogFormatError as err:
            reason = err.reason
        else:
            if log["complete"]:
                keys, reason = _recount(log)
                if reason is None:
                    loaded.append((log, keys))
                    continue
            elif log["abort"] is not None:
                reason = f"aborted: {log['abort']}"
            else:
                reason = "no summary line"
        print(f"warning: skipping {path}: {reason}", file=sys.stderr)
        skipped.append(f"- `{os.path.basename(path)}`: {reason}")
    if not loaded:
        print("error: no complete run logs found", file=sys.stderr)
        return 3
    os.makedirs(out_dir, exist_ok=True)

    rows_by_sampler: dict[str, list[dict]] = {}
    failure_rows: dict[tuple, int] = {}
    coverage_cells: dict[tuple, list[float]] = {}
    entropy_by_sampler: dict[str, list[tuple]] = {}
    digests = set()
    for log, keys in loaded:
        header, summary = log["header"], log["summary"]
        sampler = f"{header['sampler']['kind']}:{header['sampler']['digest']}"
        row = _summary_row(sampler, {**header, **summary})
        cell = (sampler, row["task"], row["difficulty"])
        if header.get("config_digest"):
            digests.add(header["config_digest"])
        rows_by_sampler.setdefault(sampler, []).append(row)
        for category, count in summary["failure_counts"].items():
            key = (*cell, category)
            failure_rows[key] = failure_rows.get(key, 0) + count
        coverage_cells.setdefault(cell, []).append(row["coverage"])
        entropy_by_sampler.setdefault(sampler, []).extend(
            _entropy_rows(row["instance_id"], keys)
        )
    samplers = sorted(rows_by_sampler)

    order: dict[str, int] = {}
    for task in {task for _, task, _ in coverage_cells}:
        order.update(difficulty_order(task))

    aggregated = {
        sampler: {
            (row.task, row.difficulty, row.metric): row.formatted
            for row in metrics.aggregate(rows, difficulty_order=order)
        }
        for sampler, rows in rows_by_sampler.items()
    }
    every_row = [row for rows in rows_by_sampler.values() for row in rows]
    cells = [
        (row.task, row.difficulty, row.metric)
        for row in metrics.aggregate(every_row, difficulty_order=order)
    ]

    lines = ["# Run report", ""]
    if digests:
        lines.append(f"config digests: {', '.join(sorted(digests))}")
        lines.append("")
    lines.append("| Task | Difficulty | Metric | " + " | ".join(samplers) + " |")
    lines.append("|" + "---|" * (3 + len(samplers)))
    for task, difficulty, metric in cells:
        row = [task, difficulty, metric.upper()]
        for sampler in samplers:
            row.append(aggregated[sampler].get((task, difficulty, metric), ""))
        lines.append("| " + " | ".join(row) + " |")
    if skipped:
        lines += ["", "## Skipped logs", "", *skipped]
    with open(os.path.join(out_dir, "report.md"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    _write_csv(
        os.path.join(out_dir, "failure_modes.csv"),
        ["sampler", "task", "difficulty", "category", "count"],
        [(*key, count) for key, count in sorted(failure_rows.items())],
    )
    means = {cell: sum(v) / len(v) for cell, v in sorted(coverage_cells.items())}
    _write_csv(
        os.path.join(out_dir, "coverage.csv"),
        ["sampler", "task", "difficulty", "explored", "unexplored"],
        [(*cell, f"{mean:.6f}", f"{1 - mean:.6f}") for cell, mean in means.items()],
    )
    for sampler in samplers:
        # %-escaped and cut short with a digest, so that each label names a
        # file of its own inside out_dir; a plain label only has ':' as '-'
        name = urllib.parse.quote(sampler.replace(":", "-"), safe="", errors="surrogatepass")
        if len(name) > 200:
            name = f"{name[:187]}-{hashlib.sha256(name.encode()).hexdigest()[:12]}"
        _write_csv(
            os.path.join(out_dir, f"entropy_series_{name}.csv"),
            ENTROPY_COLUMNS,
            entropy_by_sampler[sampler],
        )
    print(f"report written to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hyposet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate instance files")
    p_gen.set_defaults(func=cmd_gen)
    p_run = sub.add_parser("run", help="execute a sampling suite")
    p_run.set_defaults(func=cmd_run)
    commands = {"gen": p_gen, "run": p_run}
    for p in commands.values():
        p.add_argument("--config", help="JSON config file, such as a run's config.json")
    for option in _OPTIONS:
        types = option.rule[0]
        if bool in types:  # a switch: given or not, never false
            kwargs = {"action": "store_true", "default": None}
        else:
            parse = float if float in types else int if int in types else str
            kwargs = {"type": parse, "choices": _CHOICES.get(option.key)}
        for command in option.commands.split() if option.flag else ():
            commands[command].add_argument(
                option.flag, dest=option.key, help=option.help, **kwargs
            )

    p_val = sub.add_parser("validate", help="judge one hypothesis text")
    p_val.add_argument("instance", help="instance JSON file")
    p_val.add_argument("hypothesis", help="hypothesis text, @file, or - for stdin")
    p_val.set_defaults(func=cmd_validate)

    p_rep = sub.add_parser("report", help="aggregate run logs")
    p_rep.add_argument("logs", help="directory of .jsonl run logs")
    p_rep.add_argument("--out", help="report output directory")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else 1
    try:
        return args.func(args)
    except (
        ConfigError,
        TransportFailure,
        EnumerationLimit,
        OSError,
        json.JSONDecodeError,
        ValueError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
