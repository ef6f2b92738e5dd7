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
import json
import os
import sys
from dataclasses import asdict, dataclass, field

from . import metrics
from .errors import (
    ConfigError,
    ConstraintViolation,
    EnumerationLimit,
    ParseFailure,
    TransportFailure,
)
from .harness import DEFAULT_N_CAP, SamplerConfig, derive_seed, load_log, run_suite
from .tasks import difficulty_order, get_task, load_instance

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

_SAMPLER_ALIASES = {"random": "random_valid"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@dataclass
class SuiteConfig:
    """Everything one workflow needs; mirrors the CLI flags in JSON."""

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
        payload = asdict(self)
        payload.pop("out")  # the experiment's identity, not its location
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    @classmethod
    def from_file(cls, path) -> "SuiteConfig":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        cfg = cls()
        for key, value in data.items():
            if not hasattr(cfg, key):
                raise ConfigError(f"unknown config key {key!r}")
            setattr(cfg, key, value)
        return cfg


def _config_from_args(args) -> SuiteConfig:
    cfg = SuiteConfig.from_file(args.config) if args.config else SuiteConfig()
    if args.task is not None:
        cfg.task = args.task
    task = get_task(cfg.task)
    if getattr(args, "difficulty", None):
        cfg.difficulty = [d.strip() for d in args.difficulty.split(",") if d.strip()]
    if not cfg.difficulty:
        cfg.difficulty = list(task.levels)
    for level in cfg.difficulty:
        if level != "custom" and level not in task.levels:
            raise ConfigError(
                f"unknown difficulty {level!r} for task {cfg.task};"
                f" expected one of {list(task.levels)}"
            )
    for name in ("count", "seed", "out", "n_cap"):
        value = getattr(args, name.replace("-", "_"), None)
        if value is not None:
            setattr(cfg, name, value)
    if getattr(args, "n", None) is not None:
        cfg.n_override = args.n
    if getattr(args, "deterministic", False):
        cfg.deterministic = True
    # generator overrides; a deciding override replaces the level sweep with
    # one "custom" level so instance ids stay unique
    for flag, key in (
        ("nodes", "nodes"),
        ("interventions", "interventions"),
        ("tp", "occupied"),
        ("grid", "grid"),
        ("height", "height"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            cfg.generate[key] = value
    if (cfg.task == "causal" and "nodes" in cfg.generate) or (
        cfg.task == "voxel" and "occupied" in cfg.generate
    ):
        cfg.difficulty = ["custom"]
    # sampler
    kind = getattr(args, "sampler", None)
    if kind is not None:
        cfg.sampler["kind"] = _SAMPLER_ALIASES.get(kind, kind)
    for flag in ("endpoint", "model", "temperature", "max_tokens", "max_attempts",
                 "backoff"):
        value = getattr(args, flag, None)
        if value is not None:
            cfg.sampler[flag] = value
    script_path = getattr(args, "script", None)
    if script_path is not None:
        cfg.sampler["script"] = _read_script(script_path)
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


def _sampler_config(cfg: SuiteConfig) -> SamplerConfig:
    data = dict(cfg.sampler)
    kind = data.pop("kind", "oracle")
    kind = _SAMPLER_ALIASES.get(kind, kind)
    script = data.pop("script", None)
    return SamplerConfig(
        kind=kind,
        seed=data.pop("seed", None),
        script=tuple(script) if script is not None else None,
        endpoint=data.pop("endpoint", None),
        model=data.pop("model", None),
        temperature=data.pop("temperature", None),
        max_tokens=data.pop("max_tokens", None),
        max_attempts=data.pop("max_attempts", 3),
        backoff=data.pop("backoff", 0.5),
    )


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
    for level in cfg.difficulty:
        for index in range(cfg.count):
            instance_seed = derive_seed(cfg.seed, cfg.task, level, index)
            try:
                instance = task.generate(
                    instance_seed, index=index, level=level, **cfg.generate
                )
            except EnumerationLimit as err:
                print(
                    f"warning: skipping {cfg.task} level {level} #{index}: {err}",
                    file=sys.stderr,
                )
                continue
            data = task.to_json(instance)
            data["config_digest"] = cfg.digest()
            _dump_json(
                os.path.join(instance_dir, f"{instance.instance_id}.json"), data
            )
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


def _summary_row(log) -> dict:
    s = log.summary
    fc = s.failure_counts
    return {
        "task": log.task,
        "difficulty": log.difficulty,
        "instance_id": log.instance_id,
        "sampler": f"{log.sampler_kind}:{log.sampler_digest}",
        "N": log.n,
        "h_o_size": log.h_o_size,
        "vr": s.vr,
        "nr": s.nr,
        "rr": s.rr,
        "coverage": s.coverage,
        "parse_failures": fc["parse_failure"],
        "constraint_violations": fc["constraint_violation"],
        "invalid": fc["invalid"],
        "dup_exact": fc["duplicate_exact"],
        "dup_canonical": fc["duplicate_canonical"],
        "c_count": s.c_count,
        "c_entropy_bits": s.c_entropy_bits,
    }


def _write_csv(path, columns, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _entropy_rows(instance_id, patterns) -> list[dict]:
    """Entropy series rows over records or their comparison keys."""
    gains = metrics.info_gain_series(patterns)
    rows = []
    cumulative = 0.0
    for t, delta in enumerate(gains, start=1):
        cumulative += delta
        rows.append(
            {
                "instance_id": instance_id,
                "t": t,
                "H_t": f"{cumulative:.12g}",
                "delta_I_t": f"{delta:.12g}",
            }
        )
    return rows


def cmd_run(args) -> int:
    cfg = _config_from_args(args)
    sampler_config = _sampler_config(cfg)
    log_dir = os.path.join(cfg.out, "logs")
    os.makedirs(log_dir, exist_ok=True)
    _dump_json(
        os.path.join(cfg.out, "config.json"),
        {**asdict(cfg), "digest": cfg.digest()},
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
        [_summary_row(log) for log in complete],
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


def cmd_report(args) -> int:
    log_dir = args.logs
    out_dir = args.out or os.path.join(os.path.dirname(log_dir.rstrip("/")) or ".", "report")
    paths = sorted(
        os.path.join(log_dir, f)
        for f in os.listdir(log_dir)
        if f.endswith(".jsonl")
    )
    loaded = []
    for path in paths:
        log = load_log(path)
        if log["complete"]:
            loaded.append(log)
    if not loaded:
        print("error: no complete run logs found", file=sys.stderr)
        return 3
    os.makedirs(out_dir, exist_ok=True)

    samplers = sorted(
        {
            f"{log['header']['sampler']['kind']}:{log['header']['sampler']['digest']}"
            for log in loaded
        }
    )
    rows_by_sampler: dict[str, list[dict]] = {s: [] for s in samplers}
    failure_rows: dict[tuple, int] = {}
    coverage_cells: dict[tuple, list[float]] = {}
    entropy_by_sampler: dict[str, list[dict]] = {s: [] for s in samplers}
    tasks_seen = set()
    digests = set()
    for log in loaded:
        header = log["header"]
        sampler = f"{header['sampler']['kind']}:{header['sampler']['digest']}"
        task = header["task"]
        difficulty = header["difficulty"]
        tasks_seen.add(task)
        if header.get("config_digest"):
            digests.add(header["config_digest"])
        summary = log["summary"]
        rows_by_sampler[sampler].append(
            {
                "task": task,
                "difficulty": difficulty,
                "vr": summary["vr"],
                "nr": summary["nr"],
                "rr": summary["rr"],
            }
        )
        for category, count in summary["failure_counts"].items():
            key = (sampler, task, difficulty, category)
            failure_rows[key] = failure_rows.get(key, 0) + count
        coverage_cells.setdefault((sampler, task, difficulty), []).append(
            summary["coverage"]
        )
        keys = [
            p["canonical"] if p["canonical"] is not None else p["raw"]
            for p in log["proposals"]
        ]
        entropy_by_sampler[sampler].extend(_entropy_rows(header["instance_id"], keys))

    order: dict[str, int] = {}
    for task in tasks_seen:
        order.update(difficulty_order(task))

    aggregated = {
        sampler: {
            (row.task, row.difficulty, row.metric): row.formatted
            for row in metrics.aggregate(rows, difficulty_order=order)
        }
        for sampler, rows in rows_by_sampler.items()
    }
    cells = sorted(
        {key for table in aggregated.values() for key in table},
        key=lambda k: (
            metrics.TASK_ORDER.index(k[0]) if k[0] in metrics.TASK_ORDER else 99,
            order.get(k[1], 99),
            k[1],
            ("vr", "nr", "rr").index(k[2]),
        ),
    )

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
    with open(os.path.join(out_dir, "report.md"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    _write_csv(
        os.path.join(out_dir, "failure_modes.csv"),
        ["sampler", "task", "difficulty", "category", "count"],
        [
            {
                "sampler": s,
                "task": t,
                "difficulty": d,
                "category": c,
                "count": count,
            }
            for (s, t, d, c), count in sorted(failure_rows.items())
        ],
    )
    _write_csv(
        os.path.join(out_dir, "coverage.csv"),
        ["sampler", "task", "difficulty", "explored", "unexplored"],
        [
            {
                "sampler": s,
                "task": t,
                "difficulty": d,
                "explored": f"{sum(vals) / len(vals):.6f}",
                "unexplored": f"{1 - sum(vals) / len(vals):.6f}",
            }
            for (s, t, d), vals in sorted(coverage_cells.items())
        ],
    )
    for sampler in samplers:
        suffix = sampler.replace(":", "-")
        _write_csv(
            os.path.join(out_dir, f"entropy_series_{suffix}.csv"),
            ENTROPY_COLUMNS,
            entropy_by_sampler[sampler],
        )
    print(f"report written to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hyposet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--task", choices=["causal", "voxel", "bool"])
        p.add_argument("--difficulty", help="comma-separated difficulty levels")
        p.add_argument("--count", type=int, help="instances per level")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory")
        p.add_argument("--deterministic", action="store_true")
        p.add_argument("--config", help="JSON config file mirroring the flags")
        p.add_argument("--nodes", type=int, help="causal: node count override")
        p.add_argument(
            "--interventions", type=int, help="causal: observed interventions"
        )
        p.add_argument("--tp", type=int, help="voxel: occupied column count")
        p.add_argument("--grid", type=int, help="voxel: grid side")
        p.add_argument("--height", type=int, help="voxel: height budget")

    p_gen = sub.add_parser("gen", help="generate instance files")
    add_common(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    p_val = sub.add_parser("validate", help="judge one hypothesis text")
    p_val.add_argument("instance", help="instance JSON file")
    p_val.add_argument(
        "hypothesis", help="hypothesis text, @file, or - for stdin"
    )
    p_val.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", help="execute a sampling suite")
    add_common(p_run)
    p_run.add_argument(
        "--sampler", choices=["oracle", "random", "scripted", "remote"]
    )
    p_run.add_argument("--script", help="scripted sampler emission file")
    p_run.add_argument("--endpoint", help="remote chat completions URL")
    p_run.add_argument("--model", help="remote model name")
    p_run.add_argument("--temperature", type=float)
    p_run.add_argument("--max-tokens", dest="max_tokens", type=int)
    p_run.add_argument("--max-attempts", dest="max_attempts", type=int)
    p_run.add_argument("--backoff", type=float)
    p_run.add_argument("--n-cap", dest="n_cap", type=int)
    p_run.add_argument("--n", type=int, help="override N for every run")
    p_run.set_defaults(func=cmd_run)

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
    except (ParseFailure, ConstraintViolation) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
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
