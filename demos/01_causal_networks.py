"""Walkthrough: causal networks from perturbation experiments.

A hidden directed acyclic network is probed one node at a time; each probe
reports which other nodes reacted. Several different networks usually explain
the same reports, and the library enumerates every one of them exactly.
"""

from hyposet.causal import (
    Dag,
    InterventionObservation,
    canon_dag,
    descendants,
    edges_text_from_canon,
    enumerate_admissible_dags,
    forward_effect,
    generate_causal_instance,
    serialize_dag,
)

# --- a tiny network by hand -------------------------------------------------

# three nodes A, B, C (indices 0, 1, 2) with edges A->B and B->C
chain = Dag(3, frozenset({(0, 1), (1, 2)}))
print("network:", serialize_dag(chain))
print("descendants of A:", sorted(descendants(chain, 0)))
print("perturbing A gives the reaction vector", forward_effect(chain, 0))
print("perturbing C (a sink) gives", forward_effect(chain, 2))

# --- underdetermination -----------------------------------------------------

# observe all three perturbations of the chain, then ask which networks are
# consistent: the transitive edge A->C can be present or absent, invisible
# to every probe. The enumerator returns each network's canonical form, its
# sorted edge list.
observations = [
    InterventionObservation(s, forward_effect(chain, s)) for s in range(3)
]
admissible = enumerate_admissible_dags(observations, 3)
print(f"\n{len(admissible)} networks reproduce all three probes:")
for canon in admissible:
    print("  ", edges_text_from_canon(canon))

# --- fewer probes, more freedom ----------------------------------------------

# with a single probe the admissible set grows quickly
one_probe = [InterventionObservation(0, forward_effect(chain, 0))]
admissible = enumerate_admissible_dags(one_probe, 3)
print(f"\nafter only the A-probe, {len(admissible)} networks remain:")
for canon in admissible:
    print("  ", canon or "(no edges)")

# --- generated instances -----------------------------------------------------

# instance generation samples a latent network, probes m distinct nodes, and
# stores the exact admissible set; everything is seed-deterministic
instance = generate_causal_instance(n=4, m=4, seed=7)
print(f"\ngenerated instance {instance.difficulty} (seed 7)")
print("latent network:", serialize_dag(instance.latent))
print("admissible set size:", len(instance.admissible))
print("latent is admissible:", canon_dag(instance.latent) in instance.admissible)

sizes = [len(generate_causal_instance(4, 4, s).admissible) for s in range(12)]
print("admissible sizes across twelve seeds:", sizes)
