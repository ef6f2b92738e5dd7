"""The validators' contract that scoring rests on: a valid emission's
canonical form lies in the enumerated admissible set H_O, for every task.

``RunScorer`` counts distinct valid canonical forms over |H_O| and looks
nothing up in H_O, so each test here judges many emissions with the task's
own ``evaluate_text`` and checks every valid one against an enumeration.
Only that implication is checked: an emission whose canonical form is in
H_O may still be invalid (a too-deep bool emission, say).
"""

import itertools
import random

import pytest

from hyposet import boolexpr, causal, voxel
from hyposet.tasks import get_task

from bruteforce import naive_bool_trees, stack_canon_admissible


def valid_forms(task, instance, texts):
    """Canonical forms of the texts the task judges valid on the instance."""
    forms = set()
    for text in texts:
        evaluation = task.evaluate_text(instance, text)
        if evaluation.valid:
            forms.add(evaluation.canonical)
    return forms


def digraph_texts(n):
    """``EDGES:`` text of every labeled digraph on n nodes, no self-loops."""
    pairs = [
        f"{causal.node_label(i)}>{causal.node_label(j)}"
        for i, j in itertools.permutations(range(n), 2)
    ]
    for mask in range(2 ** len(pairs)):
        edges = [p for bit, p in enumerate(pairs) if mask >> bit & 1]
        yield "EDGES: " + (", ".join(edges) if edges else "none")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_causal_valid_graphs_are_admissible(n):
    task = get_task("causal")
    texts = list(digraph_texts(n))
    for m in range(1, n + 1):
        for seed in (1, 2):
            instance = causal.generate_causal_instance(n, m, seed)
            admissible = set(instance.admissible)
            valid = valid_forms(task, instance, texts)
            assert valid <= admissible, (n, m, seed)
            # every admissible DAG is one of the digraphs judged
            assert valid == admissible


def voxel_instance(projection, k):
    return voxel.VoxelInstance(
        projection=projection, k=k, count=voxel.count_admissible(projection, k)
    )


@pytest.mark.parametrize("k", [1, 2, 3])
def test_voxel_height_assignments_on_a_small_grid(k):
    """Every height 0..k of every cell of a 2x2 grid, judged against every
    projection of that grid."""
    task = get_task("voxel")
    full = ((1, 1), (1, 1))
    texts = [
        voxel.texts_from_heights(full, k, heights)[0]
        for heights in itertools.product(range(k + 1), repeat=4)
    ]
    for bits in itertools.product((0, 1), repeat=4):
        projection = (bits[:2], bits[2:])
        instance = voxel_instance(projection, k)
        valid = valid_forms(task, instance, texts)
        for form in valid:
            assert stack_canon_admissible(form, projection, k), (form, projection)
        assert len(valid) == instance.count


@pytest.mark.parametrize("level", ["1", "2", "3"])
def test_voxel_random_layer_blocks_on_generated_instances(level):
    task = get_task("voxel")
    rng = random.Random(int(level))
    hits = 0
    for seed in (1, 2):
        instance = task.generate(seed=seed, level=level)
        rows, cols = len(instance.projection), len(instance.projection[0])
        admissible = set(task.admissible_keys(instance))
        texts = []
        for _ in range(1500):
            # half the draws keep the projection as the bottom layer, and a
            # cell above it is set with odds 0.15, so that some draws settle
            layers = [
                [[int(rng.random() < (0.5 if z == 0 else 0.15)) for _ in range(cols)]
                 for _ in range(rows)]
                for z in range(instance.k)
            ]
            if rng.random() < 0.5:
                layers[0] = instance.projection
            texts.append("LAYERS:\n" + "\n\n".join(
                "\n".join("".join(map(str, row)) for row in layer) for layer in layers
            ))
        valid = valid_forms(task, instance, texts)
        for form in valid:
            assert form in admissible
            assert stack_canon_admissible(form, instance.projection, instance.k)
        hits += len(valid)
    assert hits > 0


def expr_text(node):
    """Fully parenthesised emission text of a naive tree, node for node."""
    if isinstance(node, boolexpr.Var):
        return node.name
    if isinstance(node, boolexpr.Const):
        return str(node.value)
    if isinstance(node, boolexpr.Not):
        return f"NOT ({expr_text(node.child)})"
    left, right = node.children
    return f"({expr_text(left)} {node.name} {expr_text(right)})"


BOOL_TEXTS = [
    "EXPR: " + expr_text(tree)
    for tree in naive_bool_trees(boolexpr.DEFAULT_OPS, 2, allow_constants=True)
]


@pytest.mark.parametrize("level", ["basic", "extended", "full"])
def test_bool_valid_forms_are_admissible(level):
    """The naive trees of depth <= 2, with constants and without (the list
    with constants holds every tree without), on two instances per level."""
    task = get_task("bool")
    hits = 0
    for seed in (1, 2):
        instance = boolexpr.generate_bool_instance(level, seed)
        admissible = set(instance.admissible_keys)
        valid = valid_forms(task, instance, BOOL_TEXTS)
        assert valid <= admissible, (level, seed, valid - admissible)
        hits += len(valid)
    assert hits > 0
