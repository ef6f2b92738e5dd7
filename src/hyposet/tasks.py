"""Task adapters: one uniform surface over the three domains.

Each adapter knows how to generate instances at named difficulty levels,
render observations for prompts, extract and judge a raw emission, walk the
admissible set in canonical order, and round-trip instances through their
JSON schema. The harness and CLI only ever talk to adapters.
"""

from __future__ import annotations

import random

import numpy as np

from . import boolexpr, causal, voxel
from .errors import ConstraintViolation, ParseFailure
from .metrics import TextEvaluation


def extract_marked_lines(raw: str, marker: str, *, multiline: bool = False) -> str:
    """Pull the first schema-matching block out of a (possibly chatty)
    response: code fences are dropped, scanning starts at the first line
    bearing the marker, and multiline blocks run to the first foreign line."""
    lines = [l for l in raw.splitlines() if not l.lstrip().startswith("```")]
    for idx, line in enumerate(lines):
        if line.strip().startswith(marker):
            if not multiline:
                return line.strip()
            block = [line.strip()]
            for rest in lines[idx + 1:]:
                row = rest.strip()
                if row and not set(row) <= {"0", "1"}:
                    break
                block.append(row)
            return "\n".join(block)
    raise ParseFailure(f"no line starting with {marker!r} found")


class CausalTask:
    name = "causal"
    template_id = "causal"
    levels = ("1", "2", "3")
    level_params = {"1": 4, "2": 5, "3": 6}
    difficulty_labels = ("nodes=4", "nodes=5", "nodes=6")
    schema_text = (
        'Answer with exactly one line of the form "EDGES: A>B, B>C" listing '
        'every directed edge of your network, or "EDGES: none" if it has no '
        "edges. Use only the node letters of this problem."
    )

    def generate(self, seed, index=0, level=None, *, nodes=None, interventions=None):
        n = nodes if nodes is not None else self.level_params[str(level)]
        m = interventions if interventions is not None else n
        label = f"nodes={n}"
        instance_id = f"causal-n{n}-{index:03d}"
        return causal.generate_causal_instance(
            n, m, seed, difficulty=label, instance_id=instance_id
        )

    def observations_text(self, instance) -> str:
        labels = ", ".join(causal.node_label(i) for i in range(instance.n))
        lines = [f"Nodes: {labels}"]
        for obs in instance.observations:
            affected = [
                causal.node_label(j) for j, bit in enumerate(obs.effect) if bit
            ]
            shown = ", ".join(affected) if affected else "(none)"
            lines.append(
                f"Perturbing {causal.node_label(obs.source)} affects: {shown}"
            )
        return "\n".join(lines)

    def evaluate_text(self, instance, raw: str) -> TextEvaluation:
        try:
            line = extract_marked_lines(raw, "EDGES")
            pairs = causal.parse_edges(line)
        except ParseFailure as err:
            return TextEvaluation(parse_error=str(err))
        canonical = causal.canon_edge_pairs(pairs)
        try:
            dag = causal.dag_from_edge_labels(instance.n, pairs)
        except ConstraintViolation as err:
            return TextEvaluation(canonical=canonical, constraint_error=str(err))
        return TextEvaluation(
            canonical=canonical,
            valid=causal.validate_dag(dag, instance.observations),
        )

    def admissible_count(self, instance) -> int:
        return len(instance.admissible)

    def admissible_keys(self, instance):
        return frozenset(instance.admissible)

    def admissible_texts(self, instance):
        return (causal.edges_text_from_canon(c) for c in instance.admissible)

    def sample_text(self, instance, rng: random.Random) -> str:
        return causal.edges_text_from_canon(rng.choice(instance.admissible))

    def to_json(self, instance) -> dict:
        labels = [causal.node_label(i) for i in range(instance.n)]
        return {
            "task": "causal",
            "n": instance.n,
            "observations": [
                {
                    "source": causal.node_label(obs.source),
                    "effect": {l: obs.effect[i] for i, l in enumerate(labels)},
                }
                for obs in instance.observations
            ],
            "admissible": list(instance.admissible),
            "id": instance.instance_id,
            "difficulty": instance.difficulty,
            "seed": instance.seed,
            "latent": causal.canon_dag(instance.latent)
            if instance.latent is not None
            else None,
        }

    def from_json(self, data: dict):
        n = int(data["n"])
        observations = tuple(
            causal.InterventionObservation(
                causal.label_index(obs["source"]),
                tuple(
                    int(obs["effect"][causal.node_label(i)]) for i in range(n)
                ),
            )
            for obs in data["observations"]
        )
        latent = None
        if data.get("latent") is not None:
            pairs = (
                [tuple(item.split(">")) for item in data["latent"].split(";")]
                if data["latent"]
                else []
            )
            latent = causal.dag_from_edge_labels(n, pairs)
        return causal.CausalInstance(
            n=n,
            observations=observations,
            admissible=tuple(data["admissible"]),
            latent=latent,
            difficulty=data.get("difficulty", ""),
            instance_id=data.get("id", ""),
            seed=data.get("seed"),
        )


# (cell above, cell below) pairs a gravity-respecting stack can hold
_STACKED = frozenset({("/", "/"), ("0", "0"), ("0", "1"), ("1", "1")})


class _LazyStackSet:
    """len/contains view over the voxel admissible set; membership is a
    string check of the canonical key, without materializing any stack."""

    def __init__(self, instance):
        self._instance = instance
        self._bottom = "/".join(
            "".join(str(v) for v in row) for row in instance.projection
        )

    def __len__(self):
        return self._instance.count

    def __contains__(self, key):
        """True iff ``key`` has K layers shaped like the projection, with 0/1
        cells; its bottom layer equals the projection (a column is occupied
        iff its bottom cell is); and every column is a bottom-anchored
        prefix."""
        if not isinstance(key, str):
            return False
        layers = key.split("|")
        if len(layers) != self._instance.k or layers[0] != self._bottom:
            return False
        return all(
            len(above) == len(below) and _STACKED.issuperset(zip(above, below))
            for below, above in zip(layers, layers[1:])
        )

    def __iter__(self):
        return (
            voxel.canon_stack(s)
            for s in voxel.enumerate_admissible_stacks(
                self._instance.projection_array, self._instance.k, cap=None
            )
        )


class VoxelTask:
    name = "voxel"
    template_id = "voxel"
    levels = ("1", "2", "3")
    level_params = {"1": 1, "2": 2, "3": 3}
    difficulty_labels = ("tp=1", "tp=2", "tp=3")
    schema_text = (
        'Answer with "LAYERS:" on its own line, followed by one block of 0/1 '
        "rows per layer from bottom to top, blocks separated by a blank line. "
        "Every block must match the grid size, and there must be exactly one "
        "block per height level."
    )

    def generate(self, seed, index=0, level=None, *, grid=3, height=3, occupied=None):
        occ = occupied if occupied is not None else self.level_params[str(level)]
        return voxel.generate_voxel_instance(
            grid,
            height,
            occ,
            seed,
            difficulty=f"tp={occ}",
            instance_id=f"voxel-tp{occ}-{index:03d}",
        )

    def observations_text(self, instance) -> str:
        proj = instance.projection_array
        rows = "\n".join("".join(str(int(v)) for v in row) for row in proj)
        return (
            f"Grid: {proj.shape[0]}x{proj.shape[1]}, height budget: {instance.k}\n"
            f"Top-down projection (1 = column occupied):\n{rows}"
        )

    def evaluate_text(self, instance, raw: str) -> TextEvaluation:
        try:
            block = extract_marked_lines(raw, "LAYERS", multiline=True)
            stack = voxel.parse_layers(block)
        except ParseFailure as err:
            return TextEvaluation(parse_error=str(err))
        canonical = voxel.canon_stack(stack)
        proj = instance.projection_array
        if stack.shape != (instance.k,) + proj.shape:
            return TextEvaluation(
                canonical=canonical,
                constraint_error=(
                    f"expected {instance.k} layers of {proj.shape[0]}x"
                    f"{proj.shape[1]}, got {stack.shape[0]} of "
                    f"{stack.shape[1]}x{stack.shape[2]}"
                ),
            )
        if not voxel.check_gravity(stack):
            return TextEvaluation(
                canonical=canonical, constraint_error="floating voxel"
            )
        return TextEvaluation(
            canonical=canonical,
            valid=bool((voxel.project(stack) == proj).all()),
        )

    def admissible_count(self, instance) -> int:
        return instance.count

    def admissible_keys(self, instance):
        return _LazyStackSet(instance)

    def admissible_texts(self, instance):
        return (
            voxel.serialize_stack(s)
            for s in voxel.enumerate_admissible_stacks(
                instance.projection_array, instance.k, cap=None
            )
        )

    def sample_text(self, instance, rng: random.Random) -> str:
        proj = instance.projection_array
        heights = [
            rng.randint(1, instance.k) for _ in voxel.occupied_columns(proj)
        ]
        return voxel.serialize_stack(
            voxel.stack_from_heights(proj, instance.k, heights)
        )

    def to_json(self, instance) -> dict:
        proj = instance.projection_array
        return {
            "task": "voxel",
            "m": int(proj.shape[0]),
            "k": instance.k,
            "projection": [[int(v) for v in row] for row in proj],
            "count": instance.count,
            "id": instance.instance_id,
            "difficulty": instance.difficulty,
            "seed": instance.seed,
        }

    def from_json(self, data: dict):
        proj = np.asarray(data["projection"], dtype=np.uint8)
        return voxel.VoxelInstance(
            projection=tuple(tuple(int(v) for v in row) for row in proj),
            k=int(data["k"]),
            count=voxel.count_admissible(proj, int(data["k"])),
            difficulty=data.get("difficulty", ""),
            instance_id=data.get("id", ""),
            seed=data.get("seed"),
        )


class BoolTask:
    name = "bool"
    template_id = "bool"
    levels = ("basic", "extended", "full")
    difficulty_labels = ("basic", "extended", "full")
    schema_text = (
        'Answer with exactly one line of the form "EXPR: x AND NOT y". '
        "Allowed tokens: x, y, AND, OR, NOT, parentheses"
        " (and 0/1 when constants are allowed)."
    )

    def generate(self, seed, index=0, level=None):
        level = str(level)
        return boolexpr.generate_bool_instance(
            level, seed, instance_id=f"bool-{level}-{index:03d}"
        )

    def observations_text(self, instance) -> str:
        ops = ", ".join(sorted(instance.ops))
        lines = [
            f"Operators: {ops}; maximum expression depth: {instance.depth_bound}; "
            f"constants allowed: {'yes' if instance.allow_constants else 'no'}"
        ]
        for obs in instance.observations:
            lines.append(f"x={obs.x}, y={obs.y} -> output {obs.pi}")
        return "\n".join(lines)

    def evaluate_text(self, instance, raw: str) -> TextEvaluation:
        try:
            line = extract_marked_lines(raw, "EXPR")
            tree = boolexpr.parse_expr(line)
        except ParseFailure as err:
            return TextEvaluation(parse_error=str(err))
        canonical = boolexpr.expr_key(boolexpr.canon_expr(tree))
        try:
            valid = boolexpr.validate_expr(
                tree,
                instance.observations,
                ops=instance.ops,
                depth_bound=instance.depth_bound,
                allow_constants=instance.allow_constants,
            )
        except ConstraintViolation as err:
            return TextEvaluation(canonical=canonical, constraint_error=str(err))
        return TextEvaluation(canonical=canonical, valid=valid)

    def admissible_count(self, instance) -> int:
        return len(instance.admissible)

    def admissible_keys(self, instance):
        return frozenset(instance.admissible_keys)

    def admissible_texts(self, instance):
        return (boolexpr.serialize_expr(e) for e in instance.admissible)

    def sample_text(self, instance, rng: random.Random) -> str:
        return boolexpr.serialize_expr(rng.choice(instance.admissible))

    def to_json(self, instance) -> dict:
        return {
            "task": "bool",
            "ops": sorted(instance.ops),
            "depth": instance.depth_bound,
            "constants": instance.allow_constants,
            "observations": [
                {"x": o.x, "y": o.y, "pi": o.pi} for o in instance.observations
            ],
            "id": instance.instance_id,
            "difficulty": instance.difficulty,
            "seed": instance.seed,
        }

    def from_json(self, data: dict):
        ops = frozenset(data["ops"])
        observations = tuple(
            boolexpr.PhenotypeObservation(int(o["x"]), int(o["y"]), int(o["pi"]))
            for o in data["observations"]
        )
        space = boolexpr.enumerate_exprs(
            ops, int(data["depth"]), bool(data["constants"])
        )
        return boolexpr.BoolInstance(
            ops=ops,
            depth_bound=int(data["depth"]),
            allow_constants=bool(data["constants"]),
            observations=observations,
            admissible=boolexpr.filter_consistent(space, observations),
            difficulty=data.get("difficulty", ""),
            instance_id=data.get("id", ""),
            seed=data.get("seed"),
        )


TASKS = {"causal": CausalTask(), "voxel": VoxelTask(), "bool": BoolTask()}


def get_task(name: str):
    try:
        return TASKS[name]
    except KeyError:
        raise ValueError(f"unknown task {name!r}; expected one of {sorted(TASKS)}")


def load_instance(data: dict):
    """Rebuild an instance from its JSON representation (any task)."""
    return get_task(data["task"]).from_json(data)


def difficulty_order(task_name: str) -> dict[str, int]:
    task = get_task(task_name)
    return {label: i for i, label in enumerate(task.difficulty_labels)}
