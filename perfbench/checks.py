"""Output checks computed apart from the package.

Nothing here imports ``hyposet``: reachability, transitive reduction,
Boolean parsing, evaluation and canonicalisation, voxel counts and the
report's mean ± std are re-derived from the plain JSON the program writes.
Every function returns a list of human-readable problems; an empty list
means the output passed.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter

# --- causal ---------------------------------------------------------------


def _label_index(label: str) -> int:
    return ord(label) - ord("A")


def parse_dag_canon(canon: str) -> list[tuple[int, int]]:
    """``"A>B;B>C"`` -> [(0, 1), (1, 2)]."""
    if not canon:
        return []
    out = []
    for item in canon.split(";"):
        a, b = item.split(">")
        out.append((_label_index(a), _label_index(b)))
    return out


def dag_canon(edges) -> str:
    return ";".join(sorted(f"{chr(65 + i)}>{chr(65 + j)}" for i, j in set(edges)))


def is_acyclic(n: int, edges) -> bool:
    indeg = [0] * n
    children = [[] for _ in range(n)]
    for i, j in edges:
        children[i].append(j)
        indeg[j] += 1
    ready = [i for i in range(n) if indeg[i] == 0]
    seen = 0
    while ready:
        u = ready.pop()
        seen += 1
        for v in children[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    return seen == n


def reach_sets(n: int, edges) -> list[frozenset[int]]:
    """Descendants of every node, by breadth-first search per node."""
    children = [[] for _ in range(n)]
    for i, j in edges:
        children[i].append(j)
    out = []
    for src in range(n):
        seen: set[int] = set()
        frontier = list(children[src])
        while frontier:
            u = frontier.pop()
            if u not in seen:
                seen.add(u)
                frontier.extend(children[u])
        seen.discard(src)
        out.append(frozenset(seen))
    return out


def causal_observations(data: dict) -> list[tuple[int, frozenset[int]]]:
    n = data["n"]
    return [
        (
            _label_index(obs["source"]),
            frozenset(
                j for j in range(n) if obs["effect"][chr(65 + j)] == 1
            ),
        )
        for obs in data["observations"]
    ]


def dag_explains(n: int, edges, observations) -> bool:
    if not is_acyclic(n, edges):
        return False
    reach = reach_sets(n, edges)
    return all(reach[src] == effect for src, effect in observations)


def closed_form_count(n: int, observations) -> int:
    """|H_O| of a fully probed instance: 2^|TC \\ TR|.

    The observations give the transitive closure TC; every admissible DAG
    contains the unique transitive reduction TR and any subset of the rest.
    """
    tc = {(s, j) for s, effect in observations for j in effect}
    tr = {
        (i, j)
        for i, j in tc
        if not any((i, k) in tc and (k, j) in tc for k in range(n))
    }
    return 2 ** (len(tc) - len(tr))


def brute_force_dags(n: int, observations) -> set[str]:
    """Canonical forms of every labeled digraph on n nodes that explains the
    observations, by filtering all 2^(n(n-1)) edge sets."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = set()
    for mask in range(2 ** len(pairs)):
        edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
        if dag_explains(n, edges, observations):
            out.add(dag_canon(edges))
    return out


def check_causal_instance(data: dict, *, brute_force_max_n: int = 4) -> list[str]:
    """Soundness of every admissible DAG, order, latent membership, the
    closed-form count when fully probed, and completeness by brute force for
    small n."""
    problems = []
    n = data["n"]
    admissible = data["admissible"]
    name = data.get("id", "causal")
    observations = causal_observations(data)
    if admissible != sorted(admissible):
        problems.append(f"{name}: admissible set is not sorted")
    if len(set(admissible)) != len(admissible):
        problems.append(f"{name}: admissible set has duplicates")
    if data.get("latent") is not None and data["latent"] not in set(admissible):
        problems.append(f"{name}: latent DAG missing from the admissible set")
    bad = [c for c in admissible if not dag_explains(n, parse_dag_canon(c), observations)]
    if bad:
        problems.append(f"{name}: {len(bad)} admissible DAGs fail the observations, e.g. {bad[0]!r}")
    if len({src for src, _ in observations}) == n:
        expected = closed_form_count(n, observations)
        if len(admissible) != expected:
            problems.append(
                f"{name}: {len(admissible)} admissible DAGs, closed form gives {expected}"
            )
    if n <= brute_force_max_n:
        brute = brute_force_dags(n, observations)
        if brute != set(admissible):
            problems.append(
                f"{name}: brute force finds {len(brute)} DAGs, instance has {len(admissible)}"
            )
    return problems


# --- voxel ----------------------------------------------------------------


def voxel_count(data: dict) -> int:
    q = sum(sum(row) for row in data["projection"])
    return data["k"] ** q


def check_voxel_instance(data: dict) -> list[str]:
    expected = voxel_count(data)
    if data["count"] != expected:
        return [f"{data.get('id', 'voxel')}: count {data['count']}, k^q gives {expected}"]
    return []


# --- bool -----------------------------------------------------------------
#
# A form is a nested tuple: ("x",), ("1",), ("NOT", child), or
# ("AND"|"OR", (child, child, ...)); an admissible set holds canonical keys
# such as "AND(NOT(x),y)".


X_MASK, Y_MASK = 0b1100, 0b1010  # truth-table bit 2x+y


def bool_truth_mask(key: str, memo: dict) -> int:
    """4-bit truth table of a canonical key (bit 2x+y holds f(x, y)),
    memoised over the sub-keys that many forms share."""
    mask = memo.get(key)
    if mask is None:
        if key in ("x", "y", "0", "1"):
            mask = {"x": X_MASK, "y": Y_MASK, "0": 0, "1": 0b1111}[key]
        elif key.startswith("NOT("):
            mask = ~bool_truth_mask(key[4:-1], memo) & 0b1111
        else:
            head, body = key.split("(", 1)
            masks = [bool_truth_mask(c, memo) for c in _split_children(body[:-1])]
            mask = 0b1111 if head == "AND" else 0
            for m in masks:
                mask = mask & m if head == "AND" else mask | m
        memo[key] = mask
    return mask


def mask_consistent(mask: int, observations) -> bool:
    return all((mask >> (2 * x + y)) & 1 == pi for x, y, pi in observations)


def bool_eval(form, x: int, y: int) -> int:
    head = form[0]
    if head == "x":
        return x
    if head == "y":
        return y
    if head in ("0", "1"):
        return int(head)
    if head == "NOT":
        return 1 - bool_eval(form[1], x, y)
    values = [bool_eval(c, x, y) for c in form[1]]
    return int(all(values)) if head == "AND" else int(any(values))


def bool_consistent(form, observations) -> bool:
    return all(bool_eval(form, x, y) == pi for x, y, pi in observations)


def combine_keys(head: str, child_keys) -> str:
    """Canonical key of an AND/OR node from its children's canonical keys."""
    keys: set[str] = set()
    for child_key in child_keys:
        if child_key.startswith(head + "("):
            keys.update(_split_children(child_key[len(head) + 1:-1]))
        else:
            keys.add(child_key)
    ordered = sorted(keys)
    if len(ordered) == 1:
        return ordered[0]
    return f"{head}({','.join(ordered)})"


def _split_children(body: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(body[start:i])
            start = i + 1
    parts.append(body[start:])
    return parts


def bool_trees(depth: int, constants: bool) -> list[tuple[str, int]]:
    """(canonical key, truth mask) of every parse tree over {x, y} with
    NOT/AND/OR of depth <= depth, one entry per tree, duplicates kept."""
    trees = [("x", X_MASK), ("y", Y_MASK)] + ([("0", 0), ("1", 0b1111)] if constants else [])
    for _ in range(depth):
        sub = trees
        trees = list(sub)
        trees.extend((f"NOT({k})", ~m & 0b1111) for k, m in sub)
        for ka, ma in sub:
            for kb, mb in sub:
                trees.append((combine_keys("AND", (ka, kb)), ma & mb))
                trees.append((combine_keys("OR", (ka, kb)), ma | mb))
    return trees


BRUTE_FORCE_PAIRS = 10**6  # depth 3 without constants has 312^2; with them, 3,280^2


def brute_force_bool_keys(depth: int, constants: bool, observations) -> set[str] | None:
    """Consistent canonical keys over every parse tree of depth <= depth
    (depth >= 1). The deepest level is filtered by truth mask before its keys
    are built. None when that level would pair more than BRUTE_FORCE_PAIRS
    subtrees."""
    sub = bool_trees(depth - 1, constants)
    if len(sub) ** 2 > BRUTE_FORCE_PAIRS:
        return None
    out = {k for k, m in sub if mask_consistent(m, observations)}
    out.update(f"NOT({k})" for k, m in sub if mask_consistent(~m & 0b1111, observations))
    for ka, ma in sub:
        for kb, mb in sub:
            if mask_consistent(ma & mb, observations):
                out.add(combine_keys("AND", (ka, kb)))
            if mask_consistent(ma | mb, observations):
                out.add(combine_keys("OR", (ka, kb)))
    return out


def bool_observations(data: dict) -> list[tuple[int, int, int]]:
    return [(o["x"], o["y"], o["pi"]) for o in data["observations"]]


def check_bool_instance(data: dict, admissible_keys) -> list[str]:
    """Soundness of every admissible form by an own evaluator, order and
    uniqueness, and completeness by brute force where it is affordable
    (every space without constants up to depth 3)."""
    problems = []
    name = data.get("id", "bool")
    keys = list(admissible_keys)
    observations = bool_observations(data)
    if keys != sorted(keys):
        problems.append(f"{name}: admissible forms are not sorted")
    if len(set(keys)) != len(keys):
        problems.append(f"{name}: admissible forms have duplicates")
    memo: dict[str, int] = {}
    bad = [k for k in keys if not mask_consistent(bool_truth_mask(k, memo), observations)]
    if bad:
        problems.append(f"{name}: {len(bad)} admissible forms fail, e.g. {bad[0]!r}")
    brute = brute_force_bool_keys(data["depth"], data["constants"], observations)
    if brute is not None and brute != set(keys):
        problems.append(f"{name}: brute force finds {len(brute)} forms, instance has {len(keys)}")
    return problems


# --- run logs -------------------------------------------------------------


def check_oracle_run(summary: dict, n: int, h_o: int) -> list[str]:
    problems = []
    if summary["vr"] != 1 or summary["nr"] != 1:
        problems.append(f"oracle run: VR={summary['vr']} NR={summary['nr']}, expected 1")
    if summary["rr"] != n / h_o:
        problems.append(f"oracle run: RR={summary['rr']}, expected {n}/{h_o}")
    if summary["h_o_size"] != h_o:
        problems.append(f"oracle run: h_o_size={summary['h_o_size']}, expected {h_o}")
    return problems


def check_random_run(summary: dict, raws: list[str]) -> list[str]:
    problems = []
    if summary["vr"] != 1:
        problems.append(f"random run: VR={summary['vr']}, expected 1")
    distinct = len(set(raws))
    if summary["nr"] != distinct / len(raws):
        problems.append(
            f"random run: NR*N={summary['nr'] * len(raws)}, distinct emissions {distinct}"
        )
    return problems


def check_categories(summary: dict, categories: list[str], expected: list[str]) -> list[str]:
    """Logged categories, in order, against those fixed by the script."""
    problems = []
    if categories != expected:
        first = next(
            (i for i, (a, b) in enumerate(zip(categories, expected)) if a != b),
            min(len(categories), len(expected)),
        )
        problems.append(
            f"categories differ from the script first at proposal {first + 1}"
        )
    counts = Counter(expected)
    stored = {c: v for c, v in summary["failure_counts"].items() if v}
    if stored != dict(counts):
        problems.append(f"category counts {stored} differ from the script's {dict(counts)}")
    return problems


SUMMARY_FIELDS = ("vr", "nr", "rr", "coverage", "rr_at_k", "failure_counts",
                  "c_count", "c_entropy_bits")


def check_rescore(stored: dict, rescored: dict) -> list[str]:
    """A re-score must reproduce every scored field of the stored summary."""
    return [
        f"re-score differs on {name}: stored {stored.get(name)!r}, re-scored {rescored.get(name)!r}"
        for name in SUMMARY_FIELDS
        if stored.get(name) != rescored.get(name)
    ]


def mean_std_cell(values) -> str:
    mean = sum(values) / len(values)
    std = 0.0
    if len(values) > 1:
        std = math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))
    return f"{mean * 100:.2f}% ± {std * 100:.2f}%"


def check_report_cells(report_md: str, logs) -> list[str]:
    """Each VR/NR/RR cell of report.md equals the mean ± sample std computed
    here from the summary lines. ``logs`` holds (header, summary) pairs."""
    groups: dict[tuple, list[dict]] = {}
    samplers = set()
    for header, summary in logs:
        sampler = f"{header['sampler']['kind']}:{header['sampler']['digest']}"
        samplers.add(sampler)
        groups.setdefault((header["task"], header["difficulty"], sampler), []).append(summary)
    lines = [l for l in report_md.splitlines() if l.startswith("| ")]
    if not lines:
        return ["report.md has no table"]
    columns = [c.strip() for c in lines[0].strip("|").split("|")][3:]
    if sorted(columns) != sorted(samplers):
        return [f"report columns {columns} differ from the logs' samplers"]
    problems = []
    seen = 0
    for line in lines[1:]:
        cells = [c.strip() for c in line.strip("|").split("|")]
        task, difficulty, metric = cells[:3]
        for sampler, cell in zip(columns, cells[3:]):
            group = groups.get((task, difficulty, sampler))
            expected = (
                mean_std_cell([s[metric.lower()] for s in group]) if group else ""
            )
            seen += bool(group)
            if cell != expected:
                problems.append(
                    f"report cell {task}/{difficulty}/{metric}/{sampler}: {cell!r}, expected {expected!r}"
                )
    if seen != 3 * len(groups):
        problems.append(f"report covers {seen} cells, expected {3 * len(groups)}")
    return problems


# --- remote mixes ---------------------------------------------------------


EDGE_RE = re.compile(r"^EDGES:\s*(.*)$")


def causal_text_edges(text: str) -> list[tuple[int, int]]:
    """Edges of a plain ``EDGES: A>B, C>D`` line written by the mix builder."""
    body = EDGE_RE.match(text).group(1).strip()
    if body == "none":
        return []
    return [
        (_label_index(a), _label_index(b))
        for a, b in (item.strip().split(">") for item in body.split(","))
    ]


def stack_ok(layers, projection, k) -> tuple[bool, bool]:
    """(in the space: right shape and no floating voxel, matches projection)."""
    rows, cols = len(projection), len(projection[0])
    if len(layers) != k or any(
        len(layer) != rows or any(len(r) != cols for r in layer) for layer in layers
    ):
        return False, False
    for i, j in itertools.product(range(rows), range(cols)):
        column = [layers[z][i][j] for z in range(k)]
        if any(column[z] > column[z - 1] for z in range(1, k)):
            return False, False
    matches = all(
        int(any(layers[z][i][j] for z in range(k))) == projection[i][j]
        for i, j in itertools.product(range(rows), range(cols))
    )
    return True, matches
