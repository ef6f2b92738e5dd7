"""Task adapters: one uniform surface over the three domains.

Each adapter knows how to generate instances at named difficulty levels,
render observations for prompts, extract and judge a raw emission, walk the
admissible set in canonical order, and round-trip instances through their
JSON schema. The harness and CLI only ever talk to adapters.
"""

from __future__ import annotations

import itertools
import random

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


class _LazyStackSet:
    """len/iter view over the voxel admissible set: the canonical keys in
    enumeration order, without materializing any stack."""

    def __init__(self, instance):
        self._instance = instance

    def __len__(self):
        return self._instance.count

    def __iter__(self):
        return (key for _, key in _stack_texts(self._instance))


def _stack_texts(instance):
    """(emission text, canonical key) of every admissible stack, in the
    order of ``voxel.enumerate_admissible_stacks``."""
    columns = sum(map(sum, instance.projection))
    for heights in itertools.product(range(1, instance.k + 1), repeat=columns):
        yield voxel.texts_from_heights(instance.projection, instance.k, heights)


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
        proj = instance.projection
        rows = instance.projection_key.replace("/", "\n")
        return (
            f"Grid: {len(proj)}x{len(proj[0])}, height budget: {instance.k}\n"
            f"Top-down projection (1 = column occupied):\n{rows}"
        )

    def evaluate_text(self, instance, raw: str) -> TextEvaluation:
        """Judged on the canonical key: shape, then gravity, then the bottom
        layer against the projection (a settled stack projects to its
        bottom layer)."""
        try:
            block = extract_marked_lines(raw, "LAYERS", multiline=True)
            rows = voxel.parse_layer_rows(block)
        except ParseFailure as err:
            return TextEvaluation(parse_error=str(err))
        layers = ["/".join(layer) for layer in rows]
        canonical = "|".join(layers)
        proj = instance.projection
        if (len(rows), len(rows[0]), len(rows[0][0])) != (
            instance.k, len(proj), len(proj[0])
        ):
            return TextEvaluation(
                canonical=canonical,
                constraint_error=(
                    f"expected {instance.k} layers of {len(proj)}x"
                    f"{len(proj[0])}, got {len(rows)} of "
                    f"{len(rows[0])}x{len(rows[0][0])}"
                ),
            )
        if not voxel.layers_settled(layers):
            return TextEvaluation(
                canonical=canonical, constraint_error="floating voxel"
            )
        return TextEvaluation(
            canonical=canonical,
            valid=layers[0] == instance.projection_key,
        )

    def admissible_count(self, instance) -> int:
        return instance.count

    def admissible_keys(self, instance):
        return _LazyStackSet(instance)

    def admissible_texts(self, instance):
        return (text for text, _ in _stack_texts(instance))

    def sample_text(self, instance, rng: random.Random) -> str:
        occupied = sum(map(sum, instance.projection))
        heights = [rng.randint(1, instance.k) for _ in range(occupied)]
        return voxel.texts_from_heights(instance.projection, instance.k, heights)[0]

    def to_json(self, instance) -> dict:
        proj = instance.projection
        return {
            "task": "voxel",
            "m": len(proj),
            "k": instance.k,
            "projection": [[int(v) for v in row] for row in proj],
            "count": instance.count,
            "id": instance.instance_id,
            "difficulty": instance.difficulty,
            "seed": instance.seed,
        }

    def from_json(self, data: dict):
        proj = tuple(tuple(int(v) for v in row) for row in data["projection"])
        return voxel.VoxelInstance(
            projection=proj,
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
    """Rebuild an instance from its JSON representation (any task). Data
    that is not an object, lacks a field its task reads or holds one of the
    wrong type raises ValueError naming the field or the type."""
    if type(data) is not dict:
        raise ValueError(f"an instance is a JSON object, not {type(data).__name__}")
    try:
        return get_task(data["task"]).from_json(data)
    except KeyError as err:
        raise ValueError(f"instance has no {err.args[0]!r} field") from None
    except TypeError as err:
        raise ValueError(f"instance holds a field of the wrong type: {err}") from None


def difficulty_order(task_name: str) -> dict[str, int]:
    task = get_task(task_name)
    return {label: i for i, label in enumerate(task.difficulty_labels)}
