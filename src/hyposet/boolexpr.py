"""Boolean interaction task: expression trees over {x, y}, canonicalization,
bounded enumeration, parsing.

The canonicalizer collapses exactly three local symmetries, applied bottom-up:
associativity flattening of nested identical operators, child ordering
(commutativity), and duplicate-child removal (idempotence). Nothing else: no
De Morgan, no absorption, no double-negation elimination, no constant folding.
Depth is always measured on the binary parse tree, never on the flattened
canonical form.

Forms are judged through 4-bit truth tables: every node folds its children's
facts (``Fold``) once, so evaluation, depth, the space checks and filtering
by observations read bits instead of walking the tree. One compose routine,
``_compose``, serves both canonicalization and enumeration.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import operator
import random
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ConstraintViolation, EnumerationLimit, ParseFailure

DEFAULT_OPS = frozenset({"NOT", "AND", "OR"})
MAX_ENUM_DEPTH = 3

ALL_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))

# Truth tables are 4-bit ints: bit 2*x + y is the value at inputs (x, y).
_X_TABLE, _Y_TABLE, _ONES = 0b1100, 0b1010, 0b1111
_COMBINE = {"AND": int.__and__, "OR": int.__or__}


class Fold(NamedTuple):
    """What a node's tree computes, folded up from its children."""

    table: int | None  # None under an operator other than AND/OR
    depth: int
    ops: frozenset[str]
    constants: bool
    key: str  # deterministic serialization, for ordering and distinctness


@dataclass(frozen=True)
class _Node:
    """Base of the tree nodes: ``fold`` is built once, from the children's
    folds, and like ``causal.Dag.reach`` is left out of eq/hash/repr/match."""

    fold: Fold = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "fold", self._fold())


@dataclass(frozen=True)
class Var(_Node):
    name: str  # "x" or "y"

    def _fold(self) -> Fold:
        table = _X_TABLE if self.name == "x" else _Y_TABLE
        return Fold(table, 0, frozenset(), False, self.name)


@dataclass(frozen=True)
class Const(_Node):
    value: int  # 0 or 1

    def _fold(self) -> Fold:
        return Fold(_ONES if self.value else 0, 0, frozenset(), True, str(self.value))


@dataclass(frozen=True)
class Not(_Node):
    child: "BoolExpr"

    def _fold(self) -> Fold:
        c = self.child.fold
        table = None if c.table is None else c.table ^ _ONES
        return Fold(table, c.depth + 1, c.ops | {"NOT"}, c.constants, f"NOT({c.key})")


@dataclass(frozen=True)
class Op(_Node):
    name: str  # "AND" or "OR"
    children: tuple["BoolExpr", ...]

    def _fold(self) -> Fold:
        tables, depths, ops, constants, keys = zip(*[c.fold for c in self.children])
        table = None
        if self.name in _COMBINE and None not in tables:
            table = functools.reduce(_COMBINE[self.name], tables)
        return Fold(
            table,
            1 + max(depths),
            frozenset([self.name]).union(*ops),
            any(constants),
            f"{self.name}({','.join(keys)})",
        )


BoolExpr = Var | Const | Not | Op


@dataclass(frozen=True)
class PhenotypeObservation:
    """One observed cross: inputs x, y and output pi, all 0/1 bits."""

    x: int
    y: int
    pi: int

    def __post_init__(self):
        if any(b not in (0, 1) for b in (self.x, self.y, self.pi)):
            raise ValueError("observation bits must be 0/1")


def _table(expr: BoolExpr) -> int:
    if expr.fold.table is None:
        raise ValueError(f"unknown operator in {expr.fold.key}")
    return expr.fold.table


def eval_expr(expr: BoolExpr, x: int, y: int) -> int:
    """Standard Boolean semantics."""
    return _table(expr) >> (2 * x + y) & 1


def truth_table(expr: BoolExpr) -> tuple[int, int, int, int]:
    return tuple(eval_expr(expr, x, y) for x, y in ALL_PAIRS)


def depth(expr: BoolExpr) -> int:
    """Tree depth: leaves are 0, an operator node is 1 + max child depth."""
    return expr.fold.depth


def expr_key(expr: BoolExpr) -> str:
    """Deterministic serialization used for ordering and distinctness."""
    return expr.fold.key


def _compose(name: str, children) -> BoolExpr:
    """The canonical ``name`` node over canonical children: flatten one level
    (a canonical child is already flat), drop duplicate keys, sort by key,
    and collapse a single child."""
    unique: dict[str, BoolExpr] = {}
    for child in children:
        flat = child.children if isinstance(child, Op) and child.name == name else (child,)
        unique.update((c.fold.key, c) for c in flat)
    ordered = [unique[k] for k in sorted(unique)]
    return ordered[0] if len(ordered) == 1 else Op(name, tuple(ordered))


def canon_expr(expr: BoolExpr) -> BoolExpr:
    """Flatten nested identical operators, drop duplicate children, sort
    children by serialization; applied bottom-up. A node that is already
    canonical comes back itself, not rebuilt."""
    match expr:
        case Var() | Const():
            return expr
        case Not(child):
            canon = canon_expr(child)
            return expr if canon is child else Not(canon)
        case Op(name, children):
            canon = [canon_expr(c) for c in children]
            keys = [c.fold.key for c in canon]
            if (
                len(keys) > 1
                and all(map(operator.is_, canon, children))
                and all(a < b for a, b in zip(keys, keys[1:]))  # sorted, unique
                and not any(isinstance(c, Op) and c.name == name for c in canon)
            ):
                return expr
            return _compose(name, canon)
    raise TypeError(f"not a BoolExpr: {expr!r}")


def validate_expr(
    expr: BoolExpr,
    observations,
    *,
    ops: frozenset[str] | None = None,
    depth_bound: int | None = None,
    allow_constants: bool = True,
) -> bool:
    """Functional agreement with every observed pair.

    When the instance's space is described (ops / depth_bound /
    allow_constants), an expression outside it raises ConstraintViolation
    rather than returning False: being out-of-space is not the same thing as
    disagreeing with the data.
    """
    fold = expr.fold
    if ops is not None and not fold.ops <= ops:
        raise ConstraintViolation(
            f"operators {sorted(fold.ops - ops)} outside the allowed set"
        )
    if not allow_constants and fold.constants:
        raise ConstraintViolation("constants are not allowed in this instance")
    if depth_bound is not None and fold.depth > depth_bound:
        raise ConstraintViolation(
            f"depth {fold.depth} exceeds the bound {depth_bound}"
        )
    return all(eval_expr(expr, o.x, o.y) == o.pi for o in observations)


@functools.lru_cache(maxsize=None)
def _enumerate(ops: frozenset[str], depth_bound: int, allow_constants: bool):
    leaves = [Var("x"), Var("y")] + ([Const(0), Const(1)] if allow_constants else [])
    current: dict[str, BoolExpr] = {expr_key(e): e for e in leaves}
    for _ in range(depth_bound):
        previous = list(current.values())
        if "NOT" in ops:
            for a in previous:
                e = Not(a)
                current.setdefault(expr_key(e), e)
        for name in sorted(ops & {"AND", "OR"}):
            # composition is symmetric, and a form composed with itself is
            # the form again
            for pair in itertools.combinations(previous, 2):
                e = _compose(name, pair)
                current.setdefault(expr_key(e), e)
    return tuple(current[k] for k in sorted(current))


def enumerate_exprs(
    ops, depth_bound: int, allow_constants: bool = False
) -> tuple[BoolExpr, ...]:
    """Every canonical form reachable by a parse tree of depth <= depth_bound,
    sorted by serialization.

    Works level by level over canonical representatives: composing canonical
    children is exhaustive because canonicalization is bottom-up and never
    increases the minimal parse depth of a form.
    """
    if depth_bound > MAX_ENUM_DEPTH:
        raise EnumerationLimit(
            f"depth bound {depth_bound} exceeds enumeration limit {MAX_ENUM_DEPTH}"
        )
    if depth_bound < 0:
        raise ValueError("depth bound must be >= 0")
    return _enumerate(frozenset(ops), depth_bound, bool(allow_constants))


def filter_consistent(exprs, observations) -> tuple[BoolExpr, ...]:
    """Subset of expressions agreeing with every observed pair: the observed
    1-bits set and the observed 0-bits clear in the truth table."""
    observations = tuple(observations)
    # summing a set of distinct bits ORs them
    ones = sum({1 << (2 * o.x + o.y) for o in observations if o.pi})
    zeros = sum({1 << (2 * o.x + o.y) for o in observations if not o.pi})
    return tuple(
        e for e in exprs if (t := _table(e)) & ones == ones and not t & zeros
    )


# --- emission text ---------------------------------------------------------

def _min_depth_and_term(expr: BoolExpr) -> tuple[int, str]:
    """(minimal parse depth, text usable as a grammar term).

    N-ary nodes are regrouped into the shallowest binary nesting (merge the
    two shallowest children first), so any canonical form reachable within a
    depth budget re-parses within that same budget.
    """
    match expr:
        case Var(name):
            return 0, name
        case Const(value):
            return 0, str(value)
        case Not(child):
            d, t = _min_depth_and_term(child)
            return d + 1, f"NOT {t}"
        case Op(name, children):
            heap = [_min_depth_and_term(c) for c in children]
            heapq.heapify(heap)
            while len(heap) > 1:
                da, ta = heapq.heappop(heap)
                db, tb = heapq.heappop(heap)
                heapq.heappush(heap, (max(da, db) + 1, f"({ta} {name} {tb})"))
            return heap[0]
    raise TypeError(f"not a BoolExpr: {expr!r}")


def min_parse_depth(expr: BoolExpr) -> int:
    """Smallest parse-tree depth among emissions reproducing this form."""
    return _min_depth_and_term(expr)[0]


def serialize_expr(expr: BoolExpr) -> str:
    """Render an expression in the emission schema (``EXPR: x AND NOT y``)."""
    _, term = _min_depth_and_term(expr)
    return "EXPR: " + (term[1:-1] if isinstance(expr, Op) else term)


# --- parsing ----------------------------------------------------------------

# Parse trees, and the recursive walks over them, are at most this deep;
# at the bound a walk uses about 400 of Python's default 1000 frames.
MAX_TOKENS = 200

_TOKEN_RE = re.compile(r"\s*(AND\b|OR\b|NOT\b|[xy01()]|[¬∧∨&|!])")

_SYMBOL_OPS = {"¬": "NOT", "!": "NOT", "∧": "AND", "&": "AND", "∨": "OR", "|": "OR"}


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseFailure(
                f"unexpected character {text[pos:].lstrip()[0]!r}",
                position=len(tokens) + 1,
            )
        if len(tokens) == MAX_TOKENS:
            raise ParseFailure(
                f"expression longer than the {MAX_TOKENS}-token limit",
                position=MAX_TOKENS + 1,
            )
        tok = m.group(1)
        tokens.append(_SYMBOL_OPS.get(tok, tok))
        pos = m.end()
    return tokens


def parse_expr(text: str) -> BoolExpr:
    """Parse ``expr := term (('AND'|'OR') term)*`` with left association and
    tightest-binding NOT; also accepts the symbol spellings.

    The body to parse is everything after an optional ``EXPR:`` prefix.
    Failures report the 1-based token position. A body of more than
    MAX_TOKENS tokens is rejected before any tree is built.
    """
    body = text.strip()
    if body.startswith("EXPR:"):
        body = body[len("EXPR:"):]
    tokens = _tokenize(body)
    pos = 0

    def fail(message: str):
        raise ParseFailure(message, position=pos + 1)

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def term() -> BoolExpr:
        tok = peek()
        if tok is None:
            fail("unexpected end of input")
        if tok == "NOT":
            take()
            return Not(term())
        if tok == "(":
            take()
            node = expr()
            if peek() != ")":
                fail("expected ')'")
            take()
            return node
        if tok in ("x", "y"):
            take()
            return Var(tok)
        if tok in ("0", "1"):
            take()
            return Const(int(tok))
        fail(f"unexpected token {tok!r}")

    def expr() -> BoolExpr:
        node = term()
        while peek() in ("AND", "OR"):
            op = take()
            node = Op(op, (node, term()))
        return node

    if not tokens:
        raise ParseFailure("empty expression")
    result = expr()
    if pos != len(tokens):
        fail(f"trailing token {tokens[pos]!r}")
    return result


# --- instance generation -----------------------------------------------------

# difficulty -> (depth bound, constants allowed, observed pairs)
DIFFICULTY_PRESETS = {
    "basic": (2, False, 4),
    "extended": (3, False, 3),
    "full": (3, True, 2),
}


@dataclass(frozen=True)
class BoolInstance:
    """One generated problem: the expression space (ops, depth, constants)
    plus observations; ``admissible`` holds the consistent canonical forms."""

    ops: frozenset[str]
    depth_bound: int
    allow_constants: bool
    observations: tuple[PhenotypeObservation, ...]
    admissible: tuple[BoolExpr, ...]
    difficulty: str = ""
    instance_id: str = ""
    seed: int | None = None

    @property
    def admissible_keys(self) -> tuple[str, ...]:
        return tuple(expr_key(e) for e in self.admissible)


def generate_bool_instance(
    difficulty: str,
    seed: int,
    *,
    instance_id: str = "",
) -> BoolInstance:
    """Build an instance at one of the preset difficulty levels.

    A target function is drawn from the enumerated space itself, so the
    admissible set is never empty. Observation pairs are the full truth table
    at ``basic`` and a seed-chosen subset at the harder levels.
    """
    if difficulty not in DIFFICULTY_PRESETS:
        raise ValueError(f"unknown difficulty {difficulty!r}")
    depth_bound, allow_constants, coverage = DIFFICULTY_PRESETS[difficulty]
    ops = DEFAULT_OPS
    rng = random.Random(seed)
    space = enumerate_exprs(ops, depth_bound, allow_constants)
    target = rng.choice(space)
    pair_indices = sorted(rng.sample(range(len(ALL_PAIRS)), coverage))
    observations = tuple(
        PhenotypeObservation(x, y, eval_expr(target, x, y))
        for x, y in (ALL_PAIRS[i] for i in pair_indices)
    )
    return BoolInstance(
        ops=ops,
        depth_bound=depth_bound,
        allow_constants=allow_constants,
        observations=observations,
        admissible=filter_consistent(space, observations),
        difficulty=difficulty,
        instance_id=instance_id,
        seed=seed,
    )
