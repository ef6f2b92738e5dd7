"""Causal-perturbation task: labeled DAGs, forward effects, exact enumeration.

Nodes are indexed 0..n-1 and carry fixed letter labels A, B, C, ...  An
observation records which nodes reacted to a single-node perturbation; a
candidate graph explains the data iff its descendant sets reproduce every
observed reaction vector exactly.

Graphs are judged through descendant bitmasks: ``reach_masks`` gives each
node's descendant set as an int, once per graph, and acyclicity, forward
effects and validation read those masks. The enumerator searches on such
masks alone and builds no graph: it grows descendant masks edge by edge and
walks an adjacency mask only from the observed sources.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

from .errors import ConstraintViolation, EnumerationLimit, ParseFailure

MAX_ENUM_NODES = 6

_EDGE_RE = re.compile(r"^([A-Z])>([A-Z])$")


def node_label(index: int) -> str:
    """Fixed letter label for a node index (0 -> 'A')."""
    if not 0 <= index < 26:
        raise ValueError(f"node index {index} out of label range")
    return chr(ord("A") + index)


def label_index(label: str) -> int:
    if len(label) != 1 or not "A" <= label <= "Z":
        raise ValueError(f"bad node label {label!r}")
    return ord(label) - ord("A")


def reach_masks(n: int, edges) -> list[int]:
    """Descendant bitmask of every node: bit j of ``masks[i]`` is set iff a
    path of one or more edges leads from i to j. A node on a cycle reaches
    itself. Warshall's closure over int bitsets: n^2 steps on n-bit ints."""
    masks = [0] * n
    for i, j in edges:
        masks[i] |= 1 << j
    for k in range(n):
        bit, through = 1 << k, masks[k]
        for i in range(n):
            if masks[i] & bit:
                masks[i] |= through
    return masks


@dataclass(frozen=True)
class Dag:
    """Labeled directed acyclic graph on nodes 0..n-1; ``reach`` holds its
    descendant bitmasks (see ``reach_masks``)."""

    n: int
    edges: frozenset[tuple[int, int]]
    reach: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset(self.edges))
        for i, j in self.edges:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ConstraintViolation(f"edge ({i},{j}) outside 0..{self.n - 1}")
            if i == j:
                raise ConstraintViolation(f"self-loop on node {node_label(i)}")
        reach = tuple(reach_masks(self.n, self.edges))
        if any(mask >> i & 1 for i, mask in enumerate(reach)):
            raise ConstraintViolation("edge set contains a cycle")
        object.__setattr__(self, "reach", reach)


@dataclass(frozen=True)
class InterventionObservation:
    """One perturbation: ``source`` was intervened on, ``effect`` is the 0/1
    reaction vector over all nodes (source position is 0 by definition)."""

    source: int
    effect: tuple[int, ...]
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "effect", tuple(int(b) for b in self.effect))
        if not 0 <= self.source < len(self.effect):
            raise ValueError("observation source outside effect vector")
        if any(b not in (0, 1) for b in self.effect):
            raise ValueError("effect entries must be 0/1")
        if self.effect[self.source] != 0:
            raise ValueError("effect at the intervened node must be 0")
        mask = sum(b << j for j, b in enumerate(self.effect))
        object.__setattr__(self, "mask", mask)


def descendants(dag: Dag, node: int) -> set[int]:
    """Transitive reachability set of ``node``, excluding the node itself."""
    if not 0 <= node < dag.n:
        raise ValueError(f"node {node} out of range 0..{dag.n - 1}")
    return {j for j in range(dag.n) if dag.reach[node] >> j & 1}


def forward_effect(dag: Dag, node: int) -> tuple[int, ...]:
    """Reaction vector of perturbing ``node``: 1 exactly at its descendants."""
    desc = descendants(dag, node)
    return tuple(1 if j in desc else 0 for j in range(dag.n))


def validate_dag(dag: Dag, observations: list[InterventionObservation] | tuple) -> bool:
    """True iff the graph reproduces every observed reaction vector."""
    for obs in observations:
        if len(obs.effect) != dag.n:
            raise ValueError(
                f"effect length {len(obs.effect)} does not match n={dag.n}"
            )
        if dag.reach[obs.source] != obs.mask:
            return False
    return True


def canon_dag(dag: Dag) -> str:
    """Canonical form: lexicographically sorted labeled edge list.

    Two graphs are the same hypothesis iff their canonical forms are equal.
    """
    return canon_edge_pairs((node_label(i), node_label(j)) for i, j in dag.edges)


def canon_edge_pairs(pairs) -> str:
    return ";".join(sorted({f"{a}>{b}" for a, b in pairs}))


def serialize_dag(dag: Dag) -> str:
    """Render a graph in the emission schema (``EDGES: A>B, B>C``)."""
    return edges_text_from_canon(canon_dag(dag))


def edges_text_from_canon(canon: str) -> str:
    if not canon:
        return "EDGES: none"
    return "EDGES: " + ", ".join(canon.split(";"))


def parse_edges(text: str) -> list[tuple[str, str]]:
    """Parse one ``EDGES:`` line into label pairs.

    Whitespace-insensitive; labels are case-sensitive single letters.
    Raises ParseFailure with the 1-based item position on malformed items.
    """
    compact = "".join(text.split())
    if not compact.startswith("EDGES:"):
        raise ParseFailure("expected a line starting with 'EDGES:'")
    body = compact[len("EDGES:"):]
    if body == "none":
        return []
    if not body:
        raise ParseFailure("empty edge list must be spelled 'EDGES: none'")
    pairs = []
    for pos, item in enumerate(body.split(","), start=1):
        m = _EDGE_RE.match(item)
        if m is None:
            raise ParseFailure(f"bad edge item {item!r}", position=pos)
        pairs.append((m.group(1), m.group(2)))
    return pairs


def dag_from_edge_labels(n: int, pairs: list[tuple[str, str]]) -> Dag:
    """Build a Dag from label pairs; structural problems raise ConstraintViolation."""
    edges = set()
    for a, b in pairs:
        i, j = label_index(a), label_index(b)
        if i >= n or j >= n:
            raise ConstraintViolation(
                f"label outside the {n}-node instance: {a}>{b}"
            )
        edges.add((i, j))
    return Dag(n, frozenset(edges))


def _reach_from(adj: list[int], source: int) -> int:
    """Descendant mask of ``source`` in the graph whose out-neighbour masks
    are ``adj``: a breadth-first walk, one frontier of bits at a time."""
    seen = 0
    frontier = adj[source]
    while frontier:
        seen |= frontier
        step = 0
        while frontier:
            bit = frontier & -frontier
            step |= adj[bit.bit_length() - 1]
            frontier ^= bit
        frontier = step & ~seen
    return seen


def enumerate_admissible_dags(observations, n: int) -> list[str]:
    """Canonical forms, sorted, of exactly the acyclic labeled digraphs
    consistent with the observations.

    Depth-first search over edge decisions on int bitmasks. Pruning: edges out
    of an observed source must stay inside its reaction set (else forbidden),
    an observed descendant no other observed descendant can account for forces
    a direct edge, and partial graphs are cut as soon as included edges
    overshoot or the remaining undecided edges cannot cover a reaction set.
    """
    if n > MAX_ENUM_NODES:
        raise EnumerationLimit(f"n={n} exceeds enumeration limit {MAX_ENUM_NODES}")
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
    labels = [f"{node_label(i)}>{node_label(j)}" for i, j in free]
    # The included edges' labels in canonical order, which for one-letter
    # labels is the order of the (i, j) pairs: the required edges, and each
    # included free edge inserted at its place among them.
    chosen = [f"{node_label(i)}>{node_label(j)}" for i, j in sorted(required)]
    place = [sum(e < edge for e in required) for edge in free]
    probed = list(targets.items())
    adj = [0] * n  # out-neighbours through the included and undecided edges
    for i, j in (*required, *free):
        adj[i] |= 1 << j
    found: list[str] = []

    # ``low`` is every node's descendant mask through the included edges,
    # ``high`` each probed source's through ``adj``: every completion reaches
    # at least ``low`` and at most ``high``. ``cut`` is the source of the edge
    # the caller just excluded, or -1; it leaves stale only the upper bounds
    # of the sources that reach it. A leaf's check is exact and replaces the
    # bounds.
    def walk(idx: int, low: list[int], high: list[int], cut: int) -> None:
        if idx == len(free):
            if all(low[s] == tmask for s, tmask in probed):
                found.append(";".join(chosen))
            return
        if cut >= 0:
            high = [
                _reach_from(adj, s) if s == cut or h >> cut & 1 else h
                for (s, _), h in zip(probed, high)
            ]
        for (s, tmask), h in zip(probed, high):
            if low[s] & ~tmask or tmask & ~h:
                return
        u, v = free[idx]
        adj[u] ^= 1 << v
        walk(idx + 1, low, high, u)
        adj[u] ^= 1 << v
        if not low[v] >> u & 1:  # u>v closes no cycle
            gained = 1 << v | low[v]
            grown = [
                m | gained if a == u or m >> u & 1 else m for a, m in enumerate(low)
            ]
            at = place[idx] + len(chosen) - len(required)
            chosen.insert(at, labels[idx])
            walk(idx + 1, grown, high, -1)
            del chosen[at]

    walk(0, low, [_reach_from(adj, s) for s, _ in probed], -1)
    found.sort()
    return found


@dataclass(frozen=True)
class CausalInstance:
    """One generated problem: observations plus the exact admissible set
    (canonical forms, sorted)."""

    n: int
    observations: tuple[InterventionObservation, ...]
    admissible: tuple[str, ...]
    latent: Dag | None = None
    difficulty: str = ""
    instance_id: str = ""
    seed: int | None = None


def random_dag(n: int, rng: random.Random, edge_prob: float = 0.5) -> Dag:
    """Sample a DAG by fixing a random topological order and tossing a coin
    per forward pair."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < edge_prob:
                edges.add((order[a], order[b]))
    return Dag(n, frozenset(edges))


def generate_causal_instance(
    n: int,
    m: int,
    seed: int,
    *,
    difficulty: str = "",
    instance_id: str = "",
) -> CausalInstance:
    """Sample a latent DAG and m distinct perturbation sources, then enumerate
    every graph consistent with the resulting observations.

    Deterministic in ``seed``; the latent graph is always a member of the
    admissible set.
    """
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    rng = random.Random(seed)
    latent = random_dag(n, rng)
    sources = rng.sample(range(n), m)
    observations = tuple(
        InterventionObservation(s, forward_effect(latent, s)) for s in sources
    )
    admissible = tuple(enumerate_admissible_dags(observations, n))
    return CausalInstance(
        n=n,
        observations=observations,
        admissible=admissible,
        latent=latent,
        difficulty=difficulty or f"nodes={n}",
        instance_id=instance_id,
        seed=seed,
    )
