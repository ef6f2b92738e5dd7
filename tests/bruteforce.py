"""Independent brute-force oracles used to check the exact enumerators.

These deliberately avoid the package's search/closure code paths: acyclicity
via Kahn's algorithm, reachability via plain BFS over adjacency lists, voxel
checks via explicit per-column loops, Boolean spaces via naive recursive tree
generation and a canonical key of its own, truth tables and depths via
standalone walks.
"""

import itertools

import numpy as np

from hyposet.boolexpr import Const, Not, Op, Var
from hyposet.causal import Dag, canon_dag


def _kahn_acyclic(n, edges):
    indeg = {i: 0 for i in range(n)}
    children = {i: [] for i in range(n)}
    for i, j in edges:
        children[i].append(j)
        indeg[j] += 1
    queue = [i for i in range(n) if indeg[i] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for v in children[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return seen == n


def _bfs_reach(n, edges, src):
    children = {i: [] for i in range(n)}
    for i, j in edges:
        children[i].append(j)
    out = set()
    stack = list(children[src])
    while stack:
        u = stack.pop()
        if u in out:
            continue
        out.add(u)
        stack.extend(children[u])
    out.discard(src)
    return out


def brute_admissible_dag_canons(observations, n):
    """Canonical forms of every DAG consistent with the observations, by
    filtering all 2^(n(n-1)) labeled digraphs."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = set()
    for mask in range(2 ** len(pairs)):
        edges = frozenset(p for k, p in enumerate(pairs) if mask >> k & 1)
        if not _kahn_acyclic(n, edges):
            continue
        ok = True
        for obs in observations:
            reach = _bfs_reach(n, edges, obs.source)
            if tuple(1 if j in reach else 0 for j in range(n)) != obs.effect:
                ok = False
                break
        if ok:
            out.add(canon_dag(Dag(n, edges)))
    return out


def _settled_over(tensor, proj):
    """Hand-rolled gravity and projection loops over one binary tensor."""
    k, rows, cols = tensor.shape
    for i in range(rows):
        for j in range(cols):
            column = [int(tensor[z, i, j]) for z in range(k)]
            if any(column[z] > column[z - 1] for z in range(1, k)):
                return False
            if (1 if any(column) else 0) != int(proj[i, j]):
                return False
    return True


def brute_admissible_stack_canons(projection, k):
    """Canonical forms of every valid stack, by filtering all binary tensors
    with hand-rolled gravity and projection loops."""
    from hyposet.voxel import canon_stack

    proj = np.asarray(projection)
    rows, cols = proj.shape
    out = set()
    for bits in itertools.product([0, 1], repeat=k * rows * cols):
        tensor = np.asarray(bits, dtype=np.uint8).reshape(k, rows, cols)
        if _settled_over(tensor, proj):
            out.add(canon_stack(tensor))
    return out


def stack_canon_admissible(canon, projection, k):
    """True iff a canonical key (layers split by ``|``, rows by ``/``) is a
    valid stack of height k over the projection, by the same loops."""
    proj = np.asarray(projection)
    cells = [[list(row) for row in layer.split("/")] for layer in canon.split("|")]
    try:
        tensor = np.asarray(cells, dtype=str)
    except ValueError:  # ragged
        return False
    if tensor.shape != (k,) + proj.shape or not set(tensor.flat) <= {"0", "1"}:
        return False
    return _settled_over(tensor.astype(np.uint8), proj)


def naive_bool_trees(ops, depth_bound, allow_constants):
    """Every binary parse tree of depth <= depth_bound (leaves at depth 0)."""
    leaves = [Var("x"), Var("y")]
    if allow_constants:
        leaves += [Const(0), Const(1)]
    if depth_bound == 0:
        return list(leaves)
    sub = naive_bool_trees(ops, depth_bound - 1, allow_constants)
    out = list(sub)
    if "NOT" in ops:
        out.extend(Not(c) for c in sub)
    for name in ("AND", "OR"):
        if name in ops:
            out.extend(Op(name, (a, b)) for a in sub for b in sub)
    return out


def _naive_canon(node, memo):
    """(key, top operator or None, operand keys) of the canonical form:
    bottom-up, a child under the same operator is flattened into its operands,
    then operands are deduplicated by key and sorted, and a single operand
    stands for the whole node. ``memo`` maps id(node) to its result, since
    naive trees share their subtrees."""
    if id(node) in memo:
        return memo[id(node)]
    if isinstance(node, Var):
        form = (node.name, None, ())
    elif isinstance(node, Const):
        form = (str(node.value), None, ())
    elif isinstance(node, Not):
        form = (f"NOT({_naive_canon(node.child, memo)[0]})", None, ())
    else:
        operands = {}
        for child in node.children:
            key, op, keys = child_form = _naive_canon(child, memo)
            if op == node.name:
                operands.update((k, None) for k in keys)
            else:
                operands[key] = child_form
        if len(operands) == 1:
            (form,) = operands.values()
        else:
            keys = tuple(sorted(operands))
            form = (f"{node.name}({','.join(keys)})", node.name, keys)
    memo[id(node)] = form
    return form


def naive_canon_key(tree):
    """Canonical key of one tree, without the package canonicalizer."""
    return _naive_canon(tree, {})[0]


def naive_bool_canon_keys(ops, depth_bound, allow_constants):
    """Naive tree generation + canonical dedupe."""
    trees = naive_bool_trees(ops, depth_bound, allow_constants)
    memo = {}
    return {_naive_canon(t, memo)[0] for t in trees}


def independent_truth_table(expr):
    """Truth table via a standalone evaluator (no eval_expr)."""

    def ev(node, x, y):
        if isinstance(node, Var):
            return {"x": x, "y": y}[node.name]
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Not):
            return 0 if ev(node.child, x, y) else 1
        values = [ev(c, x, y) for c in node.children]
        if node.name == "AND":
            return 1 if min(values) else 0
        if node.name == "OR":
            return 1 if max(values) else 0
        raise AssertionError(node)

    return tuple(ev(expr, x, y) for x, y in ((0, 0), (0, 1), (1, 0), (1, 1)))


def independent_depth(expr):
    """Parse-tree depth via a standalone walk (no boolexpr.depth)."""
    if isinstance(expr, (Var, Const)):
        return 0
    children = [expr.child] if isinstance(expr, Not) else expr.children
    return 1 + max(independent_depth(c) for c in children)
