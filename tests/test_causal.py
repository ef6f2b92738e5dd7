import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyposet.causal import (
    Dag,
    InterventionObservation,
    canon_dag,
    dag_from_edge_labels,
    descendants,
    edges_text_from_canon,
    enumerate_admissible_dags,
    forward_effect,
    generate_causal_instance,
    parse_edges,
    random_dag,
    reach_masks,
    serialize_dag,
    validate_dag,
)
from hyposet.errors import ConstraintViolation, EnumerationLimit, ParseFailure

from bruteforce import _bfs_reach, _kahn_acyclic, brute_admissible_dag_canons
from reference_dfs import enumerate_admissible_dags as reference_dags


def dag(n, *edges):
    return Dag(n, frozenset(edges))


def random_digraphs(count, seed):
    """Random digraphs on 1..6 nodes at edge densities from empty to full,
    self-loops now and then: cyclic and acyclic ones alike."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        p = rng.random()
        edges = {
            (i, j)
            for i in range(n)
            for j in range(n)
            if rng.random() < (p if i != j else p / 20)
        }
        yield n, frozenset(edges)


class TestReachMasks:
    def test_chain(self):
        assert reach_masks(3, [(0, 1), (1, 2)]) == [0b110, 0b100, 0]

    def test_node_on_a_cycle_reaches_itself(self):
        assert reach_masks(3, [(0, 1), (1, 0), (1, 2)]) == [0b111, 0b111, 0]

    def test_dag_raises_iff_kahn_finds_a_cycle(self):
        kinds = set()
        for n, edges in random_digraphs(3000, seed=1):
            acyclic = _kahn_acyclic(n, edges)
            kinds.add(acyclic)
            if acyclic:
                Dag(n, edges)
            else:
                with pytest.raises(ConstraintViolation):
                    Dag(n, edges)
        assert kinds == {True, False}

    def test_descendants_match_bfs(self):
        checked = 0
        for n, edges in random_digraphs(3000, seed=2):
            if not _kahn_acyclic(n, edges):
                continue
            d = Dag(n, edges)
            for node in range(n):
                assert descendants(d, node) == _bfs_reach(n, edges, node)
            checked += 1
        assert checked > 500


class TestDescendants:
    def test_chain_closure(self):
        assert descendants(dag(3, (0, 1), (1, 2)), 0) == {1, 2}

    def test_no_edges(self):
        assert descendants(dag(3), 0) == set()

    def test_sink(self):
        assert descendants(dag(3, (0, 1), (0, 2)), 1) == set()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            descendants(dag(3), 3)


class TestForwardEffect:
    def test_single_edge_c_to_b(self):
        # perturbing C in {C->B} over three nodes affects exactly B
        assert forward_effect(dag(3, (2, 1)), 2) == (0, 1, 0)

    def test_chain(self):
        assert forward_effect(dag(3, (0, 1), (1, 2)), 0) == (0, 1, 1)

    def test_sink_is_all_zero(self):
        assert forward_effect(dag(4, (0, 1), (1, 2)), 3) == (0, 0, 0, 0)


class TestValidateDag:
    def test_consistent(self):
        obs = [InterventionObservation(0, (0, 1))]
        assert validate_dag(dag(2, (0, 1)), obs) is True

    def test_extra_descendant(self):
        obs = [InterventionObservation(0, (0, 1, 0))]
        assert validate_dag(dag(3, (0, 1), (0, 2)), obs) is False

    def test_indirect_descendant(self):
        obs = [InterventionObservation(0, (0, 1, 0))]
        assert validate_dag(dag(3, (0, 2), (2, 1)), obs) is False

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            validate_dag(dag(2, (0, 1)), [InterventionObservation(0, (0, 1, 0))])


class TestCanon:
    def test_sorted_edges(self):
        assert canon_dag(dag(3, (1, 2), (0, 1))) == "A>B;B>C"

    def test_empty(self):
        assert canon_dag(dag(2)) == ""

    def test_direction_matters(self):
        assert canon_dag(dag(2, (0, 1))) != canon_dag(dag(2, (1, 0)))

    def test_equality_iff_same_edge_set(self):
        a = dag(3, (0, 1), (1, 2))
        b = dag(3, (1, 2), (0, 1))
        c = dag(3, (0, 1), (0, 2))
        assert canon_dag(a) == canon_dag(b)
        assert canon_dag(a) != canon_dag(c)


class TestEnumerate:
    def test_two_nodes(self):
        obs = [InterventionObservation(0, (0, 1)), InterventionObservation(1, (0, 0))]
        got = set(enumerate_admissible_dags(obs, 2))
        assert got == brute_admissible_dag_canons(obs, 2) == {"A>B"}

    def test_three_nodes_free_transitive_edge(self):
        obs = [
            InterventionObservation(0, (0, 1, 1)),
            InterventionObservation(1, (0, 0, 1)),
            InterventionObservation(2, (0, 0, 0)),
        ]
        got = set(enumerate_admissible_dags(obs, 3))
        assert got == {"A>B;B>C", "A>B;A>C;B>C"}
        assert got == brute_admissible_dag_canons(obs, 3)

    def test_single_node(self):
        obs = [InterventionObservation(0, (0,))]
        got = enumerate_admissible_dags(obs, 1)
        assert got == [""]

    def test_limit(self):
        with pytest.raises(EnumerationLimit):
            enumerate_admissible_dags([], 7)

    def test_unsatisfiable_conflicting_repeats(self):
        obs = [
            InterventionObservation(0, (0, 1)),
            InterventionObservation(0, (0, 0)),
        ]
        assert enumerate_admissible_dags(obs, 2) == []

    # every (n, m) with n <= 4, each at two or three seeds
    SIZES = [(n, m) for n in range(1, 5) for m in range(1, n + 1)]

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_brute_force(self, seed):
        n, m = self.SIZES[seed % len(self.SIZES)]
        inst = generate_causal_instance(n, m, seed)
        assert list(inst.admissible) == sorted(
            brute_admissible_dag_canons(inst.observations, n)
        )

    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("seed", range(4))
    def test_fully_probed_count_is_closed_form(self, n, seed):
        # All n sources probed: the observations give the transitive closure
        # TC, the transitive reduction TR is unique, and the admissible set is
        # {TR + S : S a subset of TC - TR}.
        inst = generate_causal_instance(n, n, seed)
        tc = {
            (o.source, j) for o in inst.observations for j in range(n) if o.effect[j]
        }
        tr = {
            (i, j)
            for i, j in tc
            if not any((i, k) in tc and (k, j) in tc for k in range(n))
        }
        assert len(inst.admissible) == 2 ** len(tc - tr)

    def test_unconstrained_counts_labeled_dags(self):
        # Robinson (1973): labeled DAGs on 1..5 nodes
        counts = [len(enumerate_admissible_dags([], n)) for n in range(1, 6)]
        assert counts == [1, 3, 25, 543, 29281]


def search_nodes(enumerate_dags, observations, n):
    """The result of ``enumerate_dags(observations, n)`` and the number of
    recursive calls it made: the nodes its search visited below the root."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_back and frame.f_back.f_code is frame.f_code:
            calls += 1

    sys.setprofile(profile)
    try:
        result = enumerate_dags(observations, n)
    finally:
        sys.setprofile(None)
    return result, calls


class TestAgainstReference:
    """The bitmask search against the ``Dag``-building DFS it replaced
    (``tests/reference_dfs.py``), at sizes the brute force cannot reach."""

    CASES = [(5, m, seed) for m in range(1, 6) for seed in range(3)] + [
        (6, m, seed) for m in range(3, 7) for seed in range(3)
    ]

    @pytest.mark.parametrize("n, m, seed", CASES)
    def test_same_list_in_the_same_order(self, n, m, seed):
        obs = generate_causal_instance(n, m, seed).observations
        expected = [canon_dag(d) for d in reference_dags(obs, n)]
        assert enumerate_admissible_dags(obs, n) == expected

    @pytest.mark.parametrize("n, m", [(5, m) for m in range(1, 6)])
    def test_bounds_cut_as_much_as_the_reference(self, n, m):
        # The bounds do not show in the output, because a leaf's check is
        # exact; they show in the number of nodes the search visits.
        for seed in range(3):
            obs = generate_causal_instance(n, m, seed).observations
            _, visited = search_nodes(enumerate_admissible_dags, obs, n)
            _, reference_visited = search_nodes(reference_dags, obs, n)
            assert visited <= reference_visited

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_brute_force_on_arbitrary_observations(self, seed):
        # reaction vectors drawn without a latent graph, so mostly
        # unsatisfiable, and repeated sources now and then
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        obs = []
        for _ in range(rng.randint(1, n + 1)):
            source = rng.randrange(n)
            effect = [rng.randint(0, 1) for _ in range(n)]
            effect[source] = 0
            obs.append(InterventionObservation(source, tuple(effect)))
        got = enumerate_admissible_dags(obs, n)
        assert got == sorted(brute_admissible_dag_canons(obs, n))


class TestGenerate:
    def test_deterministic(self):
        assert generate_causal_instance(4, 4, 7) == generate_causal_instance(4, 4, 7)

    def test_latent_is_admissible(self):
        for seed in range(10):
            inst = generate_causal_instance(4, 3, seed)
            assert canon_dag(inst.latent) in inst.admissible
            assert validate_dag(inst.latent, inst.observations)

    def test_chain_latent_size(self):
        # all three nodes observed under the chain A->B->C: only the free
        # transitive edge A->C stays undetermined
        latent = dag(3, (0, 1), (1, 2))
        obs = [
            InterventionObservation(s, forward_effect(latent, s)) for s in range(3)
        ]
        assert len(enumerate_admissible_dags(obs, 3)) == 2

    def test_bad_params(self):
        with pytest.raises(ValueError):
            generate_causal_instance(3, 0, 1)


class TestParsing:
    def test_round_trip(self):
        d = dag(4, (0, 1), (1, 3))
        pairs = parse_edges(serialize_dag(d))
        assert canon_dag(dag_from_edge_labels(4, pairs)) == canon_dag(d)

    def test_whitespace_insensitive(self):
        assert parse_edges("  EDGES :  A > B ,B>C ") == [("A", "B"), ("B", "C")]

    def test_none(self):
        assert parse_edges("EDGES: none") == []
        assert edges_text_from_canon("") == "EDGES: none"

    def test_malformed(self):
        with pytest.raises(ParseFailure):
            parse_edges("EDGES: A>>B")
        with pytest.raises(ParseFailure):
            parse_edges("A>B")
        with pytest.raises(ParseFailure):
            parse_edges("EDGES: a>b")  # labels are case-sensitive
        with pytest.raises(ParseFailure):
            parse_edges("EDGES:")

    def test_constraint_violations(self):
        with pytest.raises(ConstraintViolation):
            dag_from_edge_labels(2, [("A", "C")])
        with pytest.raises(ConstraintViolation):
            dag_from_edge_labels(2, [("A", "A")])
        with pytest.raises(ConstraintViolation):
            dag_from_edge_labels(2, [("A", "B"), ("B", "A")])


class TestObservationType:
    def test_source_bit_must_be_zero(self):
        with pytest.raises(ValueError):
            InterventionObservation(0, (1, 0))

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            InterventionObservation(0, (0, 2))


@st.composite
def random_dags(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return random_dag(n, random.Random(seed), edge_prob=draw(st.floats(0, 1)))


class TestProperties:
    @settings(max_examples=120, deadline=None)
    @given(random_dags(), st.data())
    def test_node_not_own_descendant(self, d, data):
        node = data.draw(st.integers(min_value=0, max_value=d.n - 1))
        assert node not in descendants(d, node)

    @settings(max_examples=120, deadline=None)
    @given(random_dags(), st.data())
    def test_descendants_monotone_under_edge_addition(self, d, data):
        candidates = [
            (i, j)
            for i in range(d.n)
            for j in range(d.n)
            if i != j and (i, j) not in d.edges and i not in descendants(d, j)
        ]
        if not candidates:
            return
        extra = data.draw(st.sampled_from(candidates))
        bigger = Dag(d.n, d.edges | {extra})
        for node in range(d.n):
            assert descendants(d, node) <= descendants(bigger, node)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=10**6))
    def test_observations_only_shrink_admissible(self, n, seed):
        rng = random.Random(seed)
        latent = random_dag(n, rng)
        sources = rng.sample(range(n), n)
        obs = [
            InterventionObservation(s, forward_effect(latent, s)) for s in sources
        ]
        smaller = set(enumerate_admissible_dags(obs, n))
        larger = set(enumerate_admissible_dags(obs[:-1], n))
        assert smaller <= larger
