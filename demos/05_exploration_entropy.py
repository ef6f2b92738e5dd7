"""Walkthrough: information-theoretic view of exploration.

Each proposal lands on a pattern (its canonical form); the Shannon entropy of
the empirical pattern distribution tracks how spread out a run is, and the
stepwise entropy change separates explorers (sustained gains) from samplers
that converge early.
"""

from hyposet.harness import SamplerConfig, make_sampler, run_instance
from hyposet.metrics import (
    creativity_measures,
    info_gain_series,
    pattern_entropy,
)
from hyposet.tasks import get_task

task = get_task("voxel")
instance = task.generate(seed=3, level="3")  # 27 admissible scenes


def describe(name, config, n=27):
    log = run_instance(
        task, instance, make_sampler(config, task, instance), config, n_override=n
    )
    gains = info_gain_series(log.records)
    cumulative = []
    total = 0.0
    for delta in gains:
        total += delta
        cumulative.append(total)
    count, bits = creativity_measures(log.records)
    print(f"{name}:")
    print(f"  final entropy: {pattern_entropy(log.records):.3f} bits")
    print("  cumulative entropy per step:",
          " ".join(f"{v:.2f}" for v in cumulative[:9]), "...")
    print(f"  supported hypotheses: {count}, posterior entropy {bits:.3f} bits")
    return log


# the oracle keeps finding new patterns: every step gains information
describe("oracle", SamplerConfig(kind="oracle"))

# the repeater's entropy is pinned at zero after the first emission
repeat = next(iter(task.admissible_texts(instance)))
describe("repeater", SamplerConfig(kind="scripted", script=(repeat,)))

# random draws with replacement: early gains, then diminishing returns as
# duplicates arrive
describe("random-valid", SamplerConfig(kind="random_valid", seed=5))

# the telescoping identity ties the two views together: summing the stepwise
# gains reproduces the final entropy exactly
log = describe("random-valid (seed 9)", SamplerConfig(kind="random_valid", seed=9))
assert abs(sum(info_gain_series(log.records)) - pattern_entropy(log.records)) < 1e-12
print("\nsum of stepwise gains equals the final entropy (telescoping identity)")
