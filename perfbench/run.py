"""gen -> run -> readback benchmark for hyposet.

    python3 perfbench/run.py --workload long-runs --seed 1 --seconds 25 --trace 0

Runs one workload (or ``all``) from the package sources in ``src/`` of the
checkout it sits in. Each phase runs in a fresh process: several set-up
processes (the first also runs the run phase), one or more readback
processes, and for ``remote`` a local chat-completions stub. Prints every
end-to-end metric (``--trace 0``) or every per-layer metric (``--trace 1``)
by name and unit, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Outputs go under
``perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench-out")
MB = 1 << 20
WORKER_TIMEOUT_S = 170
DUMMY_TOKEN = "perfbench-dummy-token"

# (set-up processes, readback processes) per workload
REPEATS = {"long-runs": (5, 3), "remote": (5, 11)}

END_TO_END = (
    ("setup_s", "s"),
    ("proposals_per_s", "1/s"),
    ("proposal_ms.p50", "ms"),
    ("proposal_ms.p99", "ms"),
    ("readback_s", "s"),
    ("peak_rss_mb", "MB"),
    ("artifact_mb", "MB"),
)


class BenchError(RuntimeError):
    pass


def per_layer_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def worker(request: dict, work_dir: str, tag: str, env: dict) -> dict:
    request_path = os.path.join(work_dir, f"{tag}.request.json")
    result_path = os.path.join(work_dir, f"{tag}.result.json")
    with open(request_path, "w", encoding="utf-8") as fh:
        json.dump(request, fh)
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), request_path, result_path],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"{tag} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["wall_s"] = time.monotonic() - started
    return result


class Stub:
    """The chat-completions stub process, started and stopped around a run."""

    def __init__(self, work_dir, env):
        port_file = os.path.join(work_dir, "stub.port")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "stub.py"), port_file, DUMMY_TOKEN],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 20
        while not os.path.exists(port_file):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.proc.kill()
                self.proc.wait()
                raise BenchError("stub did not start")
            time.sleep(0.02)
        with open(port_file, encoding="utf-8") as fh:
            self.url = f"http://127.0.0.1:{fh.read().strip()}"

    def stop(self):
        if self.proc.poll() is None:
            try:
                request = urllib.request.Request(self.url + "/control/shutdown", data=b"{}")
                urllib.request.urlopen(request, timeout=5).close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
        self.proc.wait()


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import make_plan

    work_dir = os.path.join(OUT, name)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    plan = make_plan(name, seed)
    # A fixed hash seed gives every worker the same dict and set layouts,
    # which removes one source of process-to-process timing spread.
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + HERE,
               HYPOSPACE_API_KEY=DUMMY_TOKEN, PYTHONHASHSEED="0")
    setup_reps, readback_reps = REPEATS[name]
    base = {"plan": plan, "trace": trace, "seconds": seconds, "stub_url": None}

    def setup(rep):
        request = {**base, "phase": "setup", "run": rep == 1,
                   "out": os.path.join(work_dir, f"setup-{rep}")}
        return worker(request, work_dir, f"setup-{rep}", env)

    if any(r["sampler"] == "remote" for r in plan["runs"]):
        stub = Stub(work_dir, env)
        try:
            base["stub_url"] = stub.url
            setups = [setup(1)]
        finally:
            stub.stop()
    else:
        setups = [setup(1)]
    setups += [setup(rep) for rep in range(2, setup_reps + 1)]
    logs = os.path.join(work_dir, "setup-1", "logs")
    readbacks = [
        worker({**base, "phase": "readback", "logs": logs, "check_report": rep == 0,
                "report_out": os.path.join(work_dir, f"report-{rep + 1}")},
               work_dir, f"readback-{rep + 1}", env)
        for rep in range(readback_reps)
    ]
    return summarise(name, setups, readbacks, trace)


def summarise(name, setups, readbacks, trace) -> dict:
    first = setups[0]
    problems = list(first["problems"])
    for rb in readbacks:
        problems.extend(rb["problems"])
    failed_instances = first["failed_instances"]
    for rep, s in enumerate(setups[1:], start=2):
        if s["instance_digests"] != first["instance_digests"]:
            problems.append(f"set-up {rep} wrote instance files that differ from set-up 1")
            failed_instances += s["instances"]
    attempted = (
        sum(s["instances"] for s in setups)
        + first["proposals"]
        + sum(rb["logs"] for rb in readbacks)
    )
    failed = failed_instances + first["failed_proposals"] + sum(rb["failed_logs"] for rb in readbacks)
    timing = first["timing"]
    info = {
        "workload": name,
        "rounds": first["rounds"],
        "proposals": first["proposals"],
        "turnaround_samples": timing["samples"],
        "beyond_p99": timing["beyond_p99"],
        "round_rate": [round(r, 1) for r in timing["round_rates"]],
        "round_wall_rate": [round(r, 1) for r in timing["round_wall_rates"]],
        "stub": first.get("stub"),
        "setup_s_each": [round(s["setup_s"], 4) for s in setups],
        "readback_s_each": [round(rb["readback_s"], 4) for rb in readbacks],
        "worker_wall_s": [round(r["wall_s"], 2) for r in setups + readbacks],
        "problems": problems[:20],
    }
    end_to_end = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "proposals_per_s": timing["proposals_per_s"],
        "proposal_ms.p50": timing["p50_ms"],
        "proposal_ms.p99": timing["p99_ms"],
        "readback_s": statistics.median(rb["readback_s"] for rb in readbacks),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in setups + readbacks),
        "artifact_mb": (first["instance_bytes"] + first["log_bytes"]) / MB,
    }
    if not trace:
        metrics, units = end_to_end, dict(END_TO_END)
    else:
        # the same figures under tracing; minus an untraced run's, the overhead
        info["end_to_end_traced"] = end_to_end
        stub = first.get("stub")
        metrics = {
            **first["trace_setup"],
            "instance_json.mb": first["instance_bytes"] / MB,
            "setup.rss_mb": first["setup_rss_mb"],
            **first["trace_run"],
            "stub.ms": stub["handle_ms"] if stub else 0.0,
            "http.requests_per_proposal": stub["requests"] / stub["remote_proposals"] if stub else 0.0,
            "http.connections": stub["connections"] / first["rounds"] if stub else 0.0,
            "log.mb": first["log_bytes"] / MB,
            "log.header_mb": first["log_header_bytes"] / MB,
            **readbacks[0]["trace_readback"],
            "readback.rss_mb": readbacks[0]["peak_rss_mb"],
        }
        units = per_layer_units()
        missing = set(units) - set(metrics)
        if missing:
            raise BenchError(f"traced run lacks per-layer metrics {sorted(missing)}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "info": info,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hyposet", "__init__.py")):
        print(f"error: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    results = []
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (BenchError, subprocess.TimeoutExpired) as err:
            print(f"error: workload {name}: {err}", file=sys.stderr)
            return 1
        info = result.pop("info")
        print(f"# {name}: {json.dumps(info)}")
        for key, metric in result["metrics"].items():
            print(f"{name} {key}: {metric['value']:.6g} {metric['unit']}")
        print(f"{name} attempted: {result['attempted']} failed: {result['failed']} "
              f"correct: {result['correct']}")
        results.append((name, result))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{n}/{k}": v for n, r in results for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
