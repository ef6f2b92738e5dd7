"""Scripted answer mixes for the chat-completions stub.

A mix is the list of responses the stub serves for one run, with the
category each proposal must receive. The expected categories follow from how
each text is built, and every invalid or out-of-space text is re-checked
here with the benchmark's own code. Out-of-space texts are never the twin of
an in-space hypothesis, so no mix depends on how novelty treats an
out-of-space emission followed by its in-space form.
"""

from __future__ import annotations

import random

from checks import (
    bool_consistent,
    causal_observations,
    causal_text_edges,
    dag_explains,
    stack_ok,
)

# One cycle of slots; "new" falls back to "dup_exact" once the instance's
# admissible hypotheses are used up.
PATTERN = (
    "new_plain", "new_chatty", "dup_exact", "malformed", "new_fenced",
    "dup_canonical", "out_of_space", "retry_new_plain", "invalid", "new_plain",
    "dup_exact", "dup_canonical",
)

CHATTY = "Looking at the observations, one hypothesis that fits is:\n{}\nThat is my answer."
FENCED = "```\n{}\n```"
RESTATED = "Restating candidate {}:\n{}"

MALFORMED = {
    "causal": ["EDGES: A->B", "I am not sure which network this is.", "EDGES: A>B,,C>D", "EDGES:"],
    "voxel": ["LAYERS:\n012\n000", "I could not find a stack.", "LAYERS:\n01\n011"],
    "bool": ["EXPR: x AND AND y", "EXPR: (x OR y", "No rule comes to mind.", "EXPR: x XOR y"],
}


def _voxel_text(layers) -> str:
    return "LAYERS:\n" + "\n\n".join(
        "\n".join("".join(str(v) for v in row) for row in layer) for layer in layers
    )


def _causal_extras(data):
    n = data["n"]
    observations = causal_observations(data)
    out_of_space = ["EDGES: A>B, B>A", "EDGES: A>Z", "EDGES: C>C"]
    candidates = ["EDGES: none"] + [
        f"EDGES: {chr(65 + s)}>{chr(65 + j)}"
        for s, _ in observations
        for j in range(n)
        if j != s
    ]
    invalid = [
        t for t in candidates if not dag_explains(n, causal_text_edges(t), observations)
    ]
    return out_of_space, invalid


def _voxel_extras(data):
    projection, k = data["projection"], data["k"]
    rows, cols = len(projection), len(projection[0])
    occupied = [(i, j) for i in range(rows) for j in range(cols) if projection[i][j]]
    empty = [(i, j) for i in range(rows) for j in range(cols) if not projection[i][j]]

    def stack(heights):
        return [
            [[int(heights.get((i, j), 0) > z) for j in range(cols)] for i in range(rows)]
            for z in range(k)
        ]

    full = {c: 1 for c in occupied}
    floating = stack({c: 2 for c in occupied})
    i, j = occupied[0]
    floating[0][i][j] = 0
    out_of_space = [stack(full) + [stack({})[0]], floating]
    invalid = [stack({})]
    if empty:
        invalid.append(stack({**full, empty[0]: 1}))
    if len(occupied) > 1:
        invalid.append(stack({c: k for c in occupied[1:]}))
    if any(stack_ok(s, projection, k)[0] for s in out_of_space):
        raise ValueError(f"{data.get('id')}: an out-of-space stack is in the space")
    invalid = [s for s in invalid if stack_ok(s, projection, k) == (True, False)]
    return [_voxel_text(s) for s in out_of_space], [_voxel_text(s) for s in invalid]


def _bool_extras(data):
    observations = [(o["x"], o["y"], o["pi"]) for o in data["observations"]]
    out_of_space = ["EXPR: " + "NOT " * (data["depth"] + 1) + "x"]
    if not data["constants"]:
        out_of_space.append("EXPR: x AND 1")
    shallow = {
        "EXPR: x": ("x",),
        "EXPR: y": ("y",),
        "EXPR: NOT x": ("NOT", ("x",)),
        "EXPR: NOT y": ("NOT", ("y",)),
        "EXPR: x AND y": ("AND", (("x",), ("y",))),
        "EXPR: x OR y": ("OR", (("x",), ("y",))),
    }
    invalid = [text for text, form in shallow.items() if not bool_consistent(form, observations)]
    return out_of_space, invalid


EXTRAS = {"causal": _causal_extras, "voxel": _voxel_extras, "bool": _bool_extras}


def _restate(task: str, text: str, counter: int) -> str:
    if task == "causal" and "," in text:
        edges = text[len("EDGES:"):].split(",")
        text = "EDGES: " + ", ".join(e.strip() for e in reversed(edges))
    return RESTATED.format(counter, text)


def build_mix(task: str, data: dict, admissible_texts, n: int, seed: int):
    """Return (stub items, expected categories) for one run of n proposals.

    Stub items are ``["ok", text]`` or ``["status", 503]``; each 503 is
    followed by the item its retry receives.
    """
    rng = random.Random(seed)
    fresh = list(admissible_texts)
    rng.shuffle(fresh)
    out_of_space, invalid = EXTRAS[task](data)
    if not invalid:
        raise ValueError(f"{data.get('id')}: no invalid text could be built")
    items, expected = [], []
    valid_raws: list[str] = []
    valid_plain: list[str] = []
    counters = {"malformed": 0, "out_of_space": 0, "invalid": 0, "restate": 0}
    for index in range(n):
        slot = PATTERN[index % len(PATTERN)]
        if slot.startswith("retry_"):
            items.append(["status", 503])
            slot = slot[len("retry_"):]
        if slot.startswith("new") and not fresh:
            slot = "dup_exact"
        if slot.startswith("dup") and not valid_raws:
            slot = "malformed"
        if slot.startswith("new"):
            plain = fresh.pop()
            text = {"new_plain": plain, "new_chatty": CHATTY.format(plain),
                    "new_fenced": FENCED.format(plain)}[slot]
            valid_raws.append(text)
            valid_plain.append(plain)
            category = "valid_novel"
        elif slot == "dup_exact":
            text = rng.choice(valid_raws)
            category = "duplicate_exact"
        elif slot == "dup_canonical":
            counters["restate"] += 1
            text = _restate(task, rng.choice(valid_plain), counters["restate"])
            category = "duplicate_canonical"
        else:
            pool = {"malformed": MALFORMED[task], "out_of_space": out_of_space,
                    "invalid": invalid}[slot]
            text = pool[counters[slot] % len(pool)]
            counters[slot] += 1
            category = {"malformed": "parse_failure",
                        "out_of_space": "constraint_violation",
                        "invalid": "invalid"}[slot]
        items.append(["ok", text])
        expected.append(category)
    return items, expected
