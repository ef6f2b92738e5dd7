"""The benchmark's workloads, made from its seed.

A plan lists the instances a workload builds (task, generator seed, index,
level and generator overrides) and the runs it makes on them (sampler, N).
The benchmark seed picks the voxel instances (whose cost does not depend on
where their columns stand), every sampler seed and the remote mixes.

Causal and bool instances are fixed. Their cost per proposal and per run
follows their structure, not only their size: between causal instances
with the same |H_O| = 1,024, the long-runs rate moved by a third, and a
bool run's closing score is linear in |H_O|. Each causal instance is the
first of a fixed stream of generator seeds whose |H_O| lies in a band, so
a workload's shape does not depend on the seed.
"""

from __future__ import annotations

import hashlib

MAX_CANDIDATES = 400


def sub_seed(*parts) -> int:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


class Planner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.instances: list[dict] = []
        self.runs: list[dict] = []

    def add(self, task, level=None, band=None, seed=None, **kwargs) -> int:
        """Add one instance; with ``band=(lo, hi)`` keep the first candidate
        of a fixed stream of generator seeds whose admissible count lies in
        [lo, hi]; ``seed`` fixes the generator seed; otherwise the benchmark
        seed picks it."""
        index = len(self.instances)
        spec = {"task": task, "index": index, "level": level, "kwargs": kwargs}
        for candidate in range(MAX_CANDIDATES if band else 1):
            if seed is not None:
                spec["seed"] = seed
            elif band is not None:
                spec["seed"] = sub_seed("band", self.workload, index, candidate)
            else:
                spec["seed"] = sub_seed(self.seed, self.workload, index, candidate)
            if band is None:
                break
            from hyposet.tasks import get_task

            task_obj = get_task(task)
            instance = task_obj.generate(spec["seed"], index=index, level=level, **kwargs)
            if band[0] <= task_obj.admissible_count(instance) <= band[1]:
                break
        else:
            raise RuntimeError(f"no {task} instance in band {band} among {MAX_CANDIDATES} seeds")
        self.instances.append(spec)
        return index

    def run(self, instance: int, sampler: str, n: int):
        self.runs.append({
            "instance": instance,
            "sampler": sampler,
            "n": n,
            "sampler_seed": sub_seed(self.seed, self.workload, "sampler", len(self.runs)),
        })

    def as_dict(self) -> dict:
        return {"workload": self.workload, "seed": self.seed,
                "instances": self.instances, "runs": self.runs}


# Bool instances (|H_O| = 4, 181 and 29,490 at the three levels). At
# ``full`` |H_O| ranges from about 5k to 40k forms between generator seeds,
# and a band would cost a 10 s enumeration per candidate.
BOOL_SEED = sub_seed("bool", 3)


def plan_long_runs(p: Planner):
    """Few instances with thousands of admissible hypotheses that are cheap
    to build; oracle and random runs with N in the thousands."""
    causal = p.add("causal", nodes=6, interventions=5, band=(1024, 1024))
    p.run(causal, "oracle", 1000)
    p.run(causal, "random_valid", 2000)
    p.run(p.add("voxel", grid=4, height=3, occupied=7), "oracle", 3 ** 7)
    p.run(p.add("bool", level="extended", seed=BOOL_SEED), "random_valid", 1500)
    # built and checked only: the smallest spaces, brute-forced in every run
    p.add("causal", level="1", band=(8, 8))
    p.add("bool", level="basic", seed=BOOL_SEED)


def plan_remote(p: Planner):
    """Small-to-mid instances of every task, each answered by the stub with
    a scripted mix of 340 proposals (1,020 a round)."""
    p.add("causal", level="3", band=(256, 256))
    p.add("voxel", grid=4, height=3, occupied=5)
    p.add("bool", level="extended", seed=BOOL_SEED)
    for index in range(len(p.instances)):
        p.run(index, "remote", 340)


WORKLOADS = {
    "long-runs": plan_long_runs,
    "remote": plan_remote,
}


def make_plan(workload: str, seed: int) -> dict:
    planner = Planner(workload, seed)
    WORKLOADS[workload](planner)
    return planner.as_dict()
