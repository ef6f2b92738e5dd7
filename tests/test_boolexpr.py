import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyposet.boolexpr import (
    ALL_PAIRS,
    MAX_TOKENS,
    Const,
    Not,
    Op,
    PhenotypeObservation,
    Var,
    canon_expr,
    depth,
    enumerate_exprs,
    eval_expr,
    expr_key,
    filter_consistent,
    generate_bool_instance,
    min_parse_depth,
    parse_expr,
    serialize_expr,
    truth_table,
    validate_expr,
    _tokenize,
)
from hyposet.errors import ConstraintViolation, EnumerationLimit, ParseFailure

from bruteforce import independent_truth_table, naive_bool_canon_keys

OPS = frozenset({"NOT", "AND", "OR"})


def canon_key(text):
    return expr_key(canon_expr(parse_expr(text)))


class TestEval:
    def test_and_not(self):
        assert eval_expr(parse_expr("x AND NOT y"), 1, 0) == 1

    def test_or_false(self):
        assert eval_expr(parse_expr("x OR y"), 0, 0) == 0

    def test_nand_table(self):
        nand = parse_expr("NOT (x AND y)")
        for x, y in ALL_PAIRS:
            assert eval_expr(nand, x, y) == 1 - (x & y)

    def test_unknown_operator(self):
        with pytest.raises(ValueError):
            eval_expr(Op("XOR", (Var("x"), Var("y"))), 0, 0)


class TestDepth:
    def test_leaf(self):
        assert depth(parse_expr("x")) == 0

    def test_not(self):
        assert depth(parse_expr("NOT x")) == 1

    def test_mixed(self):
        assert depth(parse_expr("(x AND y) OR NOT x")) == 2

    def test_left_associative_chain(self):
        assert depth(parse_expr("x AND y AND x AND y")) == 3


class TestCanon:
    def test_commutativity(self):
        assert canon_key("y AND x") == canon_key("x AND y")

    def test_idempotence(self):
        assert canon_key("x AND x") == canon_key("x")

    def test_flatten_then_dedupe(self):
        assert canon_key("(x AND y) AND x") == canon_key("x AND y")

    def test_no_double_negation_elimination(self):
        assert canon_key("NOT NOT x") != canon_key("x")

    def test_no_constant_folding(self):
        assert canon_key("0 AND x") not in (canon_key("0"), canon_key("x"))

    def test_no_de_morgan(self):
        assert canon_key("NOT (x AND y)") != canon_key("NOT x OR NOT y")


class TestEnumerate:
    def test_depth_zero(self):
        assert {expr_key(e) for e in enumerate_exprs(OPS, 0)} == {"x", "y"}

    def test_depth_one(self):
        got = {expr_key(e) for e in enumerate_exprs(OPS, 1)}
        assert got == {"x", "y", "NOT(x)", "NOT(y)", "AND(x,y)", "OR(x,y)"}

    @pytest.mark.parametrize("allow_constants", [False, True])
    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_matches_naive_oracle(self, d, allow_constants):
        got = {expr_key(e) for e in enumerate_exprs(OPS, d, allow_constants)}
        assert got == naive_bool_canon_keys(OPS, d, allow_constants)

    def test_depth_two_count_frozen(self):
        # counts computed by the naive oracle ahead of the build
        assert len(enumerate_exprs(OPS, 2)) == 34
        assert len(enumerate_exprs(OPS, 2, True)) == 336

    def test_restricted_operator_set(self):
        got = {expr_key(e) for e in enumerate_exprs(frozenset({"AND"}), 1)}
        assert got == {"x", "y", "AND(x,y)"}

    def test_limit(self):
        with pytest.raises(EnumerationLimit):
            enumerate_exprs(OPS, 4)


class TestFilter:
    def test_and_truth_table(self):
        obs = [PhenotypeObservation(x, y, x & y) for x, y in ALL_PAIRS]
        got = filter_consistent(enumerate_exprs(OPS, 1), obs)
        assert [expr_key(e) for e in got] == ["AND(x,y)"]

    def test_empty_observations(self):
        space = enumerate_exprs(OPS, 1)
        assert filter_consistent(space, []) == space

    def test_contradictory_observations(self):
        obs = [PhenotypeObservation(0, 0, 0), PhenotypeObservation(0, 0, 1)]
        assert filter_consistent(enumerate_exprs(OPS, 2), obs) == ()


class TestValidate:
    def test_or_table(self):
        obs = [PhenotypeObservation(x, y, x | y) for x, y in ALL_PAIRS]
        assert validate_expr(parse_expr("x OR y"), obs) is True

    def test_disagreement(self):
        assert (
            validate_expr(parse_expr("x AND y"), [PhenotypeObservation(0, 1, 1)])
            is False
        )

    def test_depth_constraint(self):
        deep = parse_expr("NOT NOT NOT NOT x")
        with pytest.raises(ConstraintViolation):
            validate_expr(deep, [], depth_bound=3)

    def test_operator_constraint(self):
        with pytest.raises(ConstraintViolation):
            validate_expr(parse_expr("x OR y"), [], ops=frozenset({"NOT", "AND"}))

    def test_constants_constraint(self):
        with pytest.raises(ConstraintViolation):
            validate_expr(parse_expr("x AND 1"), [], allow_constants=False)


class TestParser:
    def test_and_not(self):
        assert expr_key(parse_expr("x AND NOT y")) == "AND(x,NOT(y))"

    def test_not_parenthesized(self):
        assert expr_key(parse_expr("NOT (x OR y)")) == "NOT(OR(x,y))"

    def test_double_operator_position(self):
        with pytest.raises(ParseFailure) as err:
            parse_expr("x AND AND y")
        assert err.value.position == 3

    def test_symbol_spellings(self):
        assert expr_key(parse_expr("¬(x ∧ y)")) == expr_key(parse_expr("!(x & y)"))
        assert expr_key(parse_expr("x ∨ y")) == expr_key(parse_expr("x | y"))

    def test_left_associativity(self):
        assert expr_key(parse_expr("x AND y OR x")) == "OR(AND(x,y),x)"

    def test_rejects_garbage(self):
        for bad in ("", "x AND", "(x", "x)", "z", "X AND Y", "and", "NOTx"):
            with pytest.raises(ParseFailure):
                parse_expr(bad)

    def test_expr_prefix_accepted(self):
        assert expr_key(parse_expr("EXPR: x AND y")) == "AND(x,y)"


def _chain(n):
    """An ``x AND x AND ...`` chain of exactly n tokens."""
    return "NOT " * (1 - n % 2) + " AND ".join(["x"] * ((n + 1) // 2))


def _parens(n):
    """x inside nested parentheses, exactly n tokens."""
    half = (n - 1) // 2
    return "NOT " * (1 - n % 2) + "(" * half + "x" + ")" * half


def _nots(n):
    return "NOT " * (n - 1) + "x"


class TestTokenLimit:
    @pytest.mark.parametrize("build", [_chain, _parens, _nots])
    def test_at_the_bound_and_one_past(self, build):
        at, past = build(MAX_TOKENS), build(MAX_TOKENS + 1)
        assert len(_tokenize(at)) == MAX_TOKENS
        parse_expr(at)
        with pytest.raises(ParseFailure) as err:
            parse_expr(past)
        assert str(MAX_TOKENS) in str(err.value)

    @pytest.mark.parametrize("build", [_chain, _parens, _nots])
    def test_task_records_a_parse_failure(self, build):
        from hyposet.tasks import get_task

        task = get_task("bool")
        inst = generate_bool_instance("basic", 3)
        at = task.evaluate_text(inst, "EXPR: " + build(MAX_TOKENS))
        assert at.parse_error is None and at.canonical is not None
        past = task.evaluate_text(inst, "EXPR: " + build(MAX_TOKENS + 1))
        assert str(MAX_TOKENS) in past.parse_error

    def test_long_chain_with_deep_recursion_is_a_parse_failure(self):
        from hyposet.tasks import get_task

        text = "EXPR: " + " AND ".join(["x"] * 334)  # 2,005 bytes
        ev = get_task("bool").evaluate_text(generate_bool_instance("basic", 3), text)
        assert ev.parse_error is not None and ev.canonical is None


class TestSerialization:
    @pytest.mark.parametrize("allow_constants", [False, True])
    @pytest.mark.parametrize("d", [1, 2])
    def test_round_trip_and_budget(self, d, allow_constants):
        for expr in enumerate_exprs(OPS, d, allow_constants):
            text = serialize_expr(expr)
            reparsed = parse_expr(text)
            assert expr_key(canon_expr(reparsed)) == expr_key(expr)
            assert depth(reparsed) <= d

    def test_wide_nary_regrouped_within_budget(self):
        # four shallow children cannot be emitted as a flat chain at d=2
        wide = canon_expr(
            Op("AND", (Op("AND", (Const(0), Const(1))), Op("AND", (Var("x"), Var("y")))))
        )
        assert len(wide.children) == 4
        assert min_parse_depth(wide) == 2
        assert depth(parse_expr(serialize_expr(wide))) == 2


class TestGenerate:
    @pytest.mark.parametrize("difficulty", ["basic", "extended", "full"])
    def test_deterministic_and_nonempty(self, difficulty):
        a = generate_bool_instance(difficulty, 3)
        b = generate_bool_instance(difficulty, 3)
        assert a == b
        assert len(a.admissible) > 0

    def test_presets(self):
        basic = generate_bool_instance("basic", 0)
        assert (basic.depth_bound, basic.allow_constants) == (2, False)
        assert len(basic.observations) == 4
        extended = generate_bool_instance("extended", 0)
        assert (extended.depth_bound, extended.allow_constants) == (3, False)
        assert len(extended.observations) == 3
        full = generate_bool_instance("full", 0)
        assert (full.depth_bound, full.allow_constants) == (3, True)
        assert len(full.observations) == 2

    def test_basic_admissible_matches_oracle(self):
        inst = generate_bool_instance("basic", 0)
        keys = naive_bool_canon_keys(OPS, 2, False)
        table = {o.pi for o in inst.observations}
        oracle = set()
        for e in enumerate_exprs(OPS, 2):
            if all(eval_expr(e, o.x, o.y) == o.pi for o in inst.observations):
                oracle.add(expr_key(e))
        assert set(inst.admissible_keys) == oracle
        assert oracle <= keys
        assert table <= {0, 1}

    def test_unknown_difficulty(self):
        with pytest.raises(ValueError):
            generate_bool_instance("impossible", 0)


@st.composite
def random_trees(draw, max_depth=4, allow_constants=True):
    if max_depth == 0 or draw(st.integers(0, 3)) == 0:
        leaves = [Var("x"), Var("y")] + (
            [Const(0), Const(1)] if allow_constants else []
        )
        return draw(st.sampled_from(leaves))
    kind = draw(st.sampled_from(["NOT", "AND", "OR"]))
    if kind == "NOT":
        return Not(draw(random_trees(max_depth=max_depth - 1)))
    left = draw(random_trees(max_depth=max_depth - 1))
    right = draw(random_trees(max_depth=max_depth - 1))
    return Op(kind, (left, right))


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(random_trees())
    def test_canon_idempotent(self, tree):
        once = canon_expr(tree)
        assert expr_key(canon_expr(once)) == expr_key(once)

    @settings(max_examples=200, deadline=None)
    @given(random_trees())
    def test_canon_preserves_semantics(self, tree):
        assert truth_table(canon_expr(tree)) == truth_table(tree)
        assert truth_table(tree) == independent_truth_table(tree)

    @settings(max_examples=200, deadline=None)
    @given(random_trees())
    def test_canon_never_deepens(self, tree):
        assert depth(canon_expr(tree)) <= depth(tree)

    @settings(max_examples=100, deadline=None)
    @given(random_trees(), st.permutations(list(ALL_PAIRS)))
    def test_filter_antitone_in_observations(self, target, pair_order):
        obs = [
            PhenotypeObservation(x, y, eval_expr(target, x, y))
            for x, y in pair_order
        ]
        space = enumerate_exprs(OPS, 2, True)
        more = set(filter_consistent(space, obs))
        fewer = set(filter_consistent(space, obs[:2]))
        assert more <= fewer
