"""The causal enumerator as it stood before the bitmask search: a
depth-first search over edge decisions that builds a ``Dag`` at every leaf
and recomputes the full closure of the included plus undecided edges at every
node. Kept only as a reference for ``causal.enumerate_admissible_dags`` on
sizes the brute force in ``bruteforce.py`` cannot reach.
"""

from hyposet.causal import Dag, MAX_ENUM_NODES, canon_dag, reach_masks, validate_dag
from hyposet.errors import EnumerationLimit


def enumerate_admissible_dags(
    observations,
    n: int,
    *,
    max_nodes: int = MAX_ENUM_NODES,
) -> list[Dag]:
    """Exactly the acyclic labeled digraphs consistent with the observations.

    Depth-first search over edge decisions. Pruning: edges out of an observed
    source must stay inside its reaction set (else forbidden), an observed
    descendant no other observed descendant can account for forces a direct
    edge, and partial graphs are cut as soon as included edges overshoot or
    the remaining undecided edges cannot cover a reaction set. Results are
    sorted by canonical form.
    """
    if n > max_nodes:
        raise EnumerationLimit(f"n={n} exceeds enumeration limit {max_nodes}")
    observations = tuple(observations)
    for obs in observations:
        if len(obs.effect) != n:
            raise ValueError("observation effect length does not match n")

    # Reaction mask per observed source; conflicting repeats are
    # unsatisfiable outright.
    targets: dict[int, int] = {}
    for obs in observations:
        if targets.setdefault(obs.source, obs.mask) != obs.mask:
            return []

    all_edges = [(i, j) for i in range(n) for j in range(n) if i != j]
    forbidden = {
        (i, j) for (i, j) in all_edges if i in targets and not targets[i] >> j & 1
    }
    required: set[tuple[int, int]] = set()
    for s, tmask in targets.items():
        members = [j for j in range(n) if tmask >> j & 1]
        for j in members:
            # j must be a direct child of s when no other member of the
            # reaction set could possibly reach it.
            via_possible = any(
                t != j and (t not in targets or targets[t] >> j & 1) for t in members
            )
            if not via_possible:
                required.add((s, j))
    if required & forbidden:
        return []
    low = reach_masks(n, required)
    if any(low[i] >> i & 1 for i in range(n)):
        return []

    free = sorted(e for e in all_edges if e not in forbidden and e not in required)
    results: list[Dag] = []

    # ``low`` is the closure of the included edges, ``high`` that of the
    # included plus the undecided ones: every completion reaches at least
    # ``low`` and at most ``high``.
    def dfs(idx: int, chosen: list, low: list[int], high: list[int]):
        for s, tmask in targets.items():
            if low[s] & ~tmask or tmask & ~high[s]:
                return
        if idx == len(free):
            dag = Dag(n, frozenset(chosen))
            if validate_dag(dag, observations):
                results.append(dag)
            return
        u, v = free[idx]
        dfs(idx + 1, chosen, low, reach_masks(n, chosen + free[idx + 1:]))
        if not low[v] >> u & 1:  # u>v closes no cycle
            gained = 1 << v | low[v]
            grown = [
                m | gained if a == u or m >> u & 1 else m for a, m in enumerate(low)
            ]
            dfs(idx + 1, chosen + [(u, v)], grown, high)

    dfs(0, sorted(required), low, reach_masks(n, [*required, *free]))
    return sorted(results, key=canon_dag)
