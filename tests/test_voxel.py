import itertools
import json
import random

import numpy as np
import pytest

from hyposet.errors import EnumerationLimit, ParseFailure
from hyposet.tasks import get_task
from hyposet.voxel import (
    VoxelInstance,
    canon_stack,
    check_gravity,
    count_admissible,
    enumerate_admissible_stacks,
    generate_voxel_instance,
    occupied_columns,
    parse_layers,
    project,
    serialize_stack,
    stack_from_canon,
    stack_from_heights,
    validate_stack,
)

from bruteforce import brute_admissible_stack_canons


def heights_stack(proj, k, heights):
    return stack_from_heights(np.asarray(proj, dtype=np.uint8), k, heights)


class TestProject:
    def test_heights(self):
        stack = heights_stack([[1, 0], [1, 1]], 3, [2, 1, 3])
        assert project(stack).tolist() == [[1, 0], [1, 1]]

    def test_empty(self):
        stack = np.zeros((3, 2, 2), dtype=np.uint8)
        assert project(stack).tolist() == [[0, 0], [0, 0]]

    def test_full(self):
        stack = np.ones((2, 2, 2), dtype=np.uint8)
        assert project(stack).tolist() == [[1, 1], [1, 1]]

    def test_invariant_to_column_heights(self):
        proj = [[1, 1], [0, 1]]
        for hs in itertools.product([1, 2, 3], repeat=3):
            assert project(heights_stack(proj, 3, hs)).tolist() == proj


class TestGravity:
    def test_prefix_column(self):
        assert check_gravity(np.asarray([[[1]], [[1]], [[0]]], dtype=np.uint8))

    def test_floating_voxel(self):
        assert not check_gravity(np.asarray([[[1]], [[0]], [[1]]], dtype=np.uint8))

    def test_empty(self):
        assert check_gravity(np.zeros((3, 2, 2), dtype=np.uint8))


class TestValidate:
    def test_valid(self):
        stack = heights_stack([[1, 0], [0, 1]], 2, [1, 2])
        assert validate_stack(stack, [[1, 0], [0, 1]]) is True

    def test_missing_column(self):
        stack = heights_stack([[0, 0], [0, 1]], 2, [1])
        assert validate_stack(stack, [[1, 0], [0, 1]]) is False

    def test_floating_never_valid(self):
        stack = np.asarray([[[0, 0], [0, 1]], [[1, 0], [0, 1]]], dtype=np.uint8)
        assert validate_stack(stack, project(stack).tolist()) is False

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            validate_stack(np.zeros((2, 2, 2), dtype=np.uint8), [[0, 0, 0]] * 3)


class TestCount:
    def test_empty_projection(self):
        assert count_admissible([[0, 0], [0, 0]], 5) == 1

    def test_three_columns_k3(self):
        assert count_admissible([[1, 1, 1]], 3) == 27

    def test_two_columns_k2(self):
        assert count_admissible([[1, 0], [0, 1]], 2) == 4

    def test_arbitrary_precision(self):
        assert count_admissible(np.ones((5, 5)), 9) == 9 ** 25

    def test_bad_k(self):
        with pytest.raises(ValueError):
            count_admissible([[1]], 0)

    @pytest.mark.parametrize(
        "grid, message",
        [([1, 0, 1], "2-d"), ([[1, 0], [1]], "2-d"), ([[1, 2]], "0/1"),
         ([[[1]]], "2-d")],
        ids=["1-d", "ragged", "cell-2", "3-d"],
    )
    def test_rejects_what_the_tensor_check_rejects(self, grid, message):
        with pytest.raises(ValueError, match=message):
            count_admissible(grid, 2)
        with pytest.raises(ValueError):
            occupied_columns(grid)

    def test_lists_tuples_and_arrays_agree(self):
        rng = random.Random(4)
        for _ in range(50):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            grid = [[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)]
            want = 3 ** len(occupied_columns(grid))
            assert count_admissible(grid, 3) == want
            assert count_admissible(tuple(map(tuple, grid)), 3) == want
            assert count_admissible(np.asarray(grid, dtype=np.uint8), 3) == want
            assert count_admissible(np.asarray(grid, dtype=bool), 3) == want


class TestEnumerate:
    def test_single_column_three_heights(self):
        stacks = list(enumerate_admissible_stacks([[1]], 3))
        assert len(stacks) == 3
        assert sorted(int(s.sum()) for s in stacks) == [1, 2, 3]

    def test_rectangular_pair(self):
        stacks = list(enumerate_admissible_stacks([[1, 1]], 2))
        assert {canon_stack(s) for s in stacks} == brute_admissible_stack_canons(
            [[1, 1]], 2
        )

    def test_soundness_and_distinctness(self):
        proj = [[1, 0, 1], [0, 1, 0], [1, 0, 0]]
        stacks = list(enumerate_admissible_stacks(proj, 3, cap=None))
        assert len(stacks) == count_admissible(proj, 3)
        assert all(validate_stack(s, proj) for s in stacks)
        assert len({canon_stack(s) for s in stacks}) == len(stacks)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("rows,cols", [(1, 1), (2, 2)])
    def test_matches_brute_force(self, rows, cols, k):
        for bits in itertools.product([0, 1], repeat=rows * cols):
            proj = np.asarray(bits, dtype=np.uint8).reshape(rows, cols)
            got = {canon_stack(s) for s in enumerate_admissible_stacks(proj, k)}
            assert got == brute_admissible_stack_canons(proj, k)

    def test_cap(self):
        with pytest.raises(EnumerationLimit):
            enumerate_admissible_stacks(np.ones((3, 3)), 3, cap=100)

    def test_deterministic_order(self):
        first = [canon_stack(s) for s in enumerate_admissible_stacks([[1, 1]], 3)]
        second = [canon_stack(s) for s in enumerate_admissible_stacks([[1, 1]], 3)]
        assert first == second


class TestSerialization:
    def test_identical_tensors_identical_strings(self):
        a = heights_stack([[1, 1]], 2, [2, 1])
        b = heights_stack([[1, 1]], 2, [2, 1])
        assert canon_stack(a) == canon_stack(b)

    def test_one_voxel_difference(self):
        a = heights_stack([[1, 1]], 2, [2, 1])
        b = heights_stack([[1, 1]], 2, [2, 2])
        assert canon_stack(a) != canon_stack(b)

    def test_round_trip_through_parser(self):
        stack = heights_stack([[1, 0], [1, 1]], 3, [2, 1, 3])
        parsed = parse_layers(serialize_stack(stack))
        assert canon_stack(parsed) == canon_stack(stack)
        assert canon_stack(stack_from_canon(canon_stack(stack))) == canon_stack(stack)

    def test_parse_failures(self):
        with pytest.raises(ParseFailure):
            parse_layers("no marker here")
        with pytest.raises(ParseFailure):
            parse_layers("LAYERS:\n")
        with pytest.raises(ParseFailure):
            parse_layers("LAYERS:\n10\n1")  # ragged rows
        with pytest.raises(ParseFailure):
            parse_layers("LAYERS:\n12")


class TestGenerate:
    def test_tp3_count(self):
        inst = generate_voxel_instance(3, 3, 3, 1)
        assert inst.count == 27

    def test_zero_occupied_singleton(self):
        inst = generate_voxel_instance(3, 3, 0, 2)
        stacks = list(enumerate_admissible_stacks(inst.projection_array, inst.k))
        assert inst.count == 1 and len(stacks) == 1
        assert int(stacks[0].sum()) == 0

    def test_deterministic(self):
        assert generate_voxel_instance(3, 3, 2, 9) == generate_voxel_instance(3, 3, 2, 9)

    def test_occupied_bounds(self):
        with pytest.raises(ValueError):
            generate_voxel_instance(2, 2, 5, 0)


def numpy_voxel_instance(m, k, occupied, seed, **labels):
    """The generator built on a numpy grid: the reference the plain-Python
    grid must match draw for draw."""
    rng = random.Random(seed)
    grid = np.zeros((m, m), dtype=np.uint8)
    for pos in rng.sample(range(m * m), occupied):
        grid[divmod(pos, m)] = 1
    return VoxelInstance(
        projection=tuple(tuple(int(v) for v in row) for row in grid),
        k=k,
        count=int(k) ** int(grid.sum()),
        difficulty=f"tp={occupied}",
        seed=seed,
        **labels,
    )


class TestGenerateParity:
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_matches_a_numpy_build_of_the_same_draw(self, m):
        task = get_task("voxel")
        for seed in range(10):
            for occupied in sorted({0, 1, m, m * m // 2, m * m}):
                for k in (1, 3):
                    got = generate_voxel_instance(m, k, occupied, seed)
                    assert got == numpy_voxel_instance(m, k, occupied, seed)
                    assert {type(v) for row in got.projection for v in row} == {int}
                    made = task.generate(seed, 7, grid=m, height=k, occupied=occupied)
                    want = numpy_voxel_instance(
                        m, k, occupied, seed, instance_id=f"voxel-tp{occupied}-007"
                    )
                    assert json.dumps(task.to_json(made)) == json.dumps(
                        task.to_json(want)
                    )
