"""One fresh process of a workload: ``python3 worker.py REQUEST RESULT``.

``setup`` builds every instance of the plan and writes its instance file,
as ``hyposet gen`` does, and times that. With ``run`` set it goes on, like
``hyposet run``, to the run phase: whole rounds of ``run_instance`` over
every run of the plan. The first round is a warm-up; it writes the logs
that readback reads. Then come at least three more rounds, until they have
lasted the requested seconds. Each round makes the same proposals in the
same order; the figures are medians over the measured rounds (see
``measure_rounds``).
``readback`` runs ``hyposet report`` over the logs and re-scores every log
against its stored summary, as a later process would. Timed regions start
after imports. The checks that follow them are not timed.

Every timed figure is CPU time of this process (``time.process_time_ns``:
user plus system time of all its threads), not wall time. On a shared
virtual machine the hypervisor takes cores away for bursts (steal) and the
scheduler preempts; wall time counts those pauses, CPU time does not. The
run phase's wall time is kept too, for the loop's length and for display.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import urllib.request

import checks
import mixes
import spans

MEASURED_ROUNDS = 3  # at least, after the warm-up round
MIN_ROUND_PROPOSALS = 1000  # so that at least ten proposals lie beyond p99
cpu_ns = time.process_time_ns


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def file_digests(directory) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def dir_bytes(directory) -> int:
    return sum(os.path.getsize(os.path.join(directory, n)) for n in os.listdir(directory))


def read_log(path):
    header, proposals, summary = None, [], None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            if obj["type"] == "run_header":
                header = obj
            elif obj["type"] == "proposal":
                proposals.append(obj)
            elif obj["type"] == "summary":
                summary = obj
    return header, proposals, summary


def measure_rounds(round_ns, round_wall_ns, round_proposals, latencies) -> dict:
    """Leave out the first round, a warm-up. Every round makes the same
    proposals in the same order, so each proposal has one turnaround per
    measured round; take its median over them. The rate is the median over
    measured rounds; p50 and p99 are taken over the proposals' medians. A
    burst of load from outside raises a proposal's time in one round, not
    its median, while a slower program raises it in every round."""
    measured = range(1, len(round_ns))
    rows = [latencies[r * round_proposals:(r + 1) * round_proposals] for r in measured]
    typical = sorted(statistics.median(column) for column in zip(*rows))
    rank = math.ceil(0.99 * len(typical)) - 1
    rates = [round_proposals / (round_ns[r] / 1e9) for r in measured]
    wall_rates = [round_proposals / (round_wall_ns[r] / 1e9) for r in measured]
    return {
        "proposals_per_s": statistics.median(rates),
        "p50_ms": statistics.median(typical) / 1e6,
        "p99_ms": typical[rank] / 1e6,
        "samples": len(typical),
        "beyond_p99": len(typical) - rank - 1,
        "round_rates": rates,
        "round_wall_rates": wall_rates,
    }


class TimedSampler:
    """Records, per proposal, the CPU time from the sampler's return to the
    harness's next request (the last one runs to ``finish``): the
    instrument's turnaround, without the sampler's own time. For the remote
    sampler that leaves out prompt rendering and the HTTP round trip, which
    the stub's gaps include."""

    def __init__(self, inner, sink):
        self._inner = inner
        self._sink = sink
        self._returned = None

    def next_proposal(self, context):
        now = cpu_ns()
        if self._returned is not None:
            self._sink.append(now - self._returned)
        raw = self._inner.next_proposal(context)
        self._returned = cpu_ns()
        return raw

    def finish(self):
        if self._returned is not None:
            self._sink.append(cpu_ns() - self._returned)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def stub_call(url, path, payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(url + path, data=data, method="GET" if data is None else "POST")
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def independent_count(task_name, data, instance) -> int:
    if task_name == "causal":
        return len(data["admissible"])
    if task_name == "voxel":
        return checks.voxel_count(data)
    return len(instance.admissible_keys)


def instance_problems(task_name, data, instance) -> list[str]:
    if task_name == "causal":
        return checks.check_causal_instance(data)
    if task_name == "voxel":
        return checks.check_voxel_instance(data)
    return checks.check_bool_instance(data, instance.admissible_keys)


def setup_phase(req, tracer) -> dict:
    from hyposet import harness
    from hyposet.tasks import get_task

    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    plan = req["plan"]
    instance_dir = os.path.join(req["out"], "instances")
    os.makedirs(instance_dir, exist_ok=True)
    started = cpu_ns()
    built = []
    for spec in plan["instances"]:
        task = get_task(spec["task"])
        instance = task.generate(
            spec["seed"], index=spec["index"], level=spec["level"], **spec["kwargs"]
        )
        with span("instance_json"):
            data = task.to_json(instance)
            path = os.path.join(instance_dir, f"{instance.instance_id}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh, indent=2, sort_keys=True)
                fh.write("\n")
        built.append((task, instance, data))
    result = {
        "setup_s": (cpu_ns() - started) / 1e9,
        "instance_digests": file_digests(instance_dir),
        "instance_bytes": dir_bytes(instance_dir),
        "setup_rss_mb": peak_rss_mb(),
        "peak_rss_mb": peak_rss_mb(),
        "instances": len(built),
    }
    if tracer:
        result["trace_setup"] = spans.setup_metrics(tracer)
        tracer.write(os.path.join(req["out"], "trace-setup.tsv"))
        tracer.reset()
    if req["run"]:
        result.update(run_phase(req, built, harness, tracer))
    return result


def run_phase(req, built, harness, tracer) -> dict:
    plan = req["plan"]
    first_dir = os.path.join(req["out"], "logs")
    repeat_dir = os.path.join(req["out"], "logs-repeat")
    os.makedirs(first_dir, exist_ok=True)
    os.makedirs(repeat_dir, exist_ok=True)
    runs, script, expected = [], [], {}
    for position, spec in enumerate(plan["runs"]):
        task, instance, data = built[spec["instance"]]
        n = spec["n"]
        if spec["sampler"] == "remote":
            config = harness.SamplerConfig(
                kind="remote", endpoint=req["stub_url"] + "/v1/chat/completions",
                model="stub", max_attempts=3, backoff=0.0,
            )
            items, expected[position] = mixes.build_mix(
                task.name, data, task.admissible_texts(instance), n, spec["sampler_seed"]
            )
            script.extend(items)
        else:
            config = harness.SamplerConfig(kind=spec["sampler"], seed=spec["sampler_seed"])
        name = f"{instance.instance_id}-{config.digest()}.jsonl"
        runs.append((position, task, instance, data, config, n, name))
    if script:
        stub_call(req["stub_url"], "/control/script", {"items": script})

    latencies: list[int] = []
    round_ns, round_wall_ns, round_marks = [], [], []
    round_proposals = sum(n for *_, n, _ in runs)
    if round_proposals < MIN_ROUND_PROPOSALS:
        raise ValueError(f"a round of {round_proposals} proposals is too short for a p99")
    while len(round_ns) <= MEASURED_ROUNDS or sum(round_wall_ns[1:]) < req["seconds"] * 1e9:
        log_dir = first_dir if not round_ns else repeat_dir
        started, wall_started = cpu_ns(), time.perf_counter_ns()
        for position, task, instance, data, config, n, name in runs:
            sampler = TimedSampler(harness.make_sampler(config, task, instance), latencies)
            harness.run_instance(
                task, instance, sampler, config, n_override=n,
                log_path=os.path.join(log_dir, name), deterministic=True,
            )
            sampler.finish()
        round_ns.append(cpu_ns() - started)
        round_wall_ns.append(time.perf_counter_ns() - wall_started)
        round_marks.append(len(latencies))
    rounds = len(round_ns)
    result = {"rounds": rounds, "proposals": rounds * round_proposals}
    if tracer:
        result["trace_run"] = spans.run_metrics(tracer, rounds)
        tracer.write(os.path.join(req["out"], "trace-run.tsv"))
        tracer.reset()

    problems = []
    if script:
        stats = stub_call(req["stub_url"], "/control/stats")
        gaps = sorted(stats["gaps_ns"][round_marks[0]:])
        retries = sum(1 for kind, _ in script if kind == "status")
        if stats["requests"] != rounds * (round_proposals + retries):
            problems.append(
                f"stub saw {stats['requests']} requests, expected "
                f"{rounds * round_proposals} proposals + {rounds * retries} retries"
            )
        result["stub"] = {
            "requests": stats["requests"],
            "connections": stats["connections"],
            "handle_ms": statistics.median(stats["handle_ns"]) / 1e6,
            "remote_proposals": rounds * round_proposals,
            "gap_p50_ms": statistics.median(gaps) / 1e6,
            "gap_p99_ms": gaps[math.ceil(0.99 * len(gaps)) - 1] / 1e6,
        }
    result["timing"] = measure_rounds(round_ns, round_wall_ns, round_proposals, latencies)

    failed_proposals = 0
    for position, task, instance, data, config, n, name in runs:
        header, props, summary = read_log(os.path.join(first_dir, name))
        if summary is None or len(props) != n:
            found = [f"{name}: {len(props)} proposals of {n}, summary {'present' if summary else 'missing'}"]
        elif config.kind == "oracle":
            found = checks.check_oracle_run(summary, n, independent_count(task.name, data, instance))
        elif config.kind == "random_valid":
            found = checks.check_random_run(summary, [p["raw"] for p in props])
        else:
            found = checks.check_categories(summary, [p["category"] for p in props], expected[position])
        problems.extend(f"{name}: {p}" for p in found)
        failed_proposals += n * rounds if found else 0
    if file_digests(first_dir) != file_digests(repeat_dir):
        problems.append("run logs differ between the first and the last round")
        failed_proposals = rounds * round_proposals
    if round_marks != [r * round_proposals for r in range(1, rounds + 1)]:
        problems.append(f"turnarounds at round ends {round_marks}, not {round_proposals} a round")
        failed_proposals = rounds * round_proposals
    headers = 0
    for name in os.listdir(first_dir):
        with open(os.path.join(first_dir, name), "rb") as fh:
            headers += len(fh.readline())

    failed_instances = 0
    for task, instance, data in built:
        found = instance_problems(task.name, data, instance)
        problems.extend(found)
        failed_instances += bool(found)
    result.update(
        problems=problems,
        failed_proposals=failed_proposals,
        failed_instances=failed_instances,
        log_bytes=dir_bytes(first_dir),
        log_header_bytes=headers,
        peak_rss_mb=peak_rss_mb(),
    )
    return result


def readback_phase(req, tracer) -> dict:
    from hyposet import cli, harness

    log_dir = req["logs"]
    paths = sorted(os.path.join(log_dir, n) for n in os.listdir(log_dir))
    problems = []
    failed_logs = 0
    started = cpu_ns()
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(["report", log_dir, "--out", req["report_out"]])
    if code != 0:
        problems.append(f"hyposet report exited {code}")
    for path in paths:
        stored, rescored = harness.rescore_log(path)
        found = checks.check_rescore(stored, {
            "vr": rescored.vr, "nr": rescored.nr, "rr": rescored.rr,
            "coverage": rescored.coverage, "rr_at_k": list(rescored.rr_at_k),
            "failure_counts": rescored.failure_counts, "c_count": rescored.c_count,
            "c_entropy_bits": rescored.c_entropy_bits,
        })
        problems.extend(f"{os.path.basename(path)}: {p}" for p in found)
        failed_logs += bool(found)
    readback_s = (cpu_ns() - started) / 1e9
    result = {"readback_s": readback_s, "logs": len(paths), "peak_rss_mb": peak_rss_mb()}
    if tracer:
        result["trace_readback"] = spans.readback_metrics(tracer)
        tracer.write(os.path.join(req["report_out"], "trace-readback.tsv"))
    if req["check_report"]:
        with open(os.path.join(req["report_out"], "report.md"), encoding="utf-8") as fh:
            report = fh.read()
        pairs = [read_log(p)[::2] for p in paths]
        found = checks.check_report_cells(report, pairs)
        problems.extend(found)
        failed_logs = len(paths) if found else failed_logs
    result.update(problems=problems, failed_logs=failed_logs)
    return result


def main(request_path, result_path) -> int:
    with open(request_path, encoding="utf-8") as fh:
        req = json.load(fh)
    import hyposet.cli  # noqa: F401  -- imports stay outside the timed regions

    tracer = None
    if req["trace"]:
        tracer = spans.Tracer()
        spans.install(tracer)
    if req["phase"] == "setup":
        result = setup_phase(req, tracer)
    else:
        result = readback_phase(req, tracer)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    code = main(sys.argv[1], sys.argv[2])
    sys.stdout.flush()
    sys.stderr.flush()
    # Skip interpreter teardown: freeing a bool space of ~89k forms and its
    # caches takes seconds that no user-facing phase includes.
    os._exit(code)
