"""Walkthrough: reconstructing cube stacks from a top-down view.

A top-down projection marks the occupied columns but hides every height, so
with height budget K each occupied column independently holds 1..K cubes:
k ** (occupied columns) distinct scenes share one view. A scene is handled
as text: its emission, and its canonical key (layers joined by "|", rows by
"/", bottom layer first).
"""

from hyposet.tasks import get_task
from hyposet.voxel import (
    VoxelInstance,
    count_admissible,
    generate_voxel_instance,
    layers_settled,
    parse_layer_rows,
    texts_from_heights,
)

task = get_task("voxel")

# --- build a scene and look straight down -------------------------------------

projection = ((1, 0), (1, 1))
text, key = texts_from_heights(projection, 3, [2, 1, 3])
print("scene serialized in the emission schema:\n")
print(text)
print("\ncanonical key:", key)
layers = ["/".join(layer) for layer in parse_layer_rows(text)]
# under gravity a stack's top-down view is its bottom layer
print("top-down view:", layers[0])
print("gravity satisfied:", layers_settled(layers))
print("matches the projection:", layers[0] == "10/11")

# a floating cube breaks the prefix rule
floating = ["00/00", "00/00", "10/00"]
print("floating cube passes gravity:", layers_settled(floating))

# --- counting without enumerating ---------------------------------------------

for k in (1, 2, 3, 5):
    print(f"K={k}: {count_admissible(projection, k)} scenes share this view")

# the closed form is exact for any size (Python integers do not overflow)
big = [[1] * 6 for _ in range(6)]
print("6x6 fully occupied at K=9:", count_admissible(big, 9), "scenes")

# --- exact enumeration ----------------------------------------------------------

instance = VoxelInstance(projection, k=2, count=count_admissible(projection, 2))
scenes = list(task.admissible_texts(instance))
print(f"\nall {len(scenes)} scenes at K=2, in deterministic order:")
columns = [(i, j) for i, row in enumerate(projection) for j, v in enumerate(row) if v]
for scene in scenes:
    rows = parse_layer_rows(scene)
    print("  heights:", [sum(layer[i][j] == "1" for layer in rows) for i, j in columns])

# every enumerated scene is valid and distinct
judged = [task.evaluate_text(instance, scene) for scene in scenes]
assert all(evaluation.valid for evaluation in judged)
assert len({evaluation.canonical for evaluation in judged}) == len(scenes)

# round trip: heights -> emission text -> parser -> the same canonical key
text, key = texts_from_heights(projection, 2, [1, 2, 2])
assert "|".join("/".join(layer) for layer in parse_layer_rows(text)) == key
print("serialize -> parse round trip preserved the scene")

# --- generated instances ---------------------------------------------------------

instance = generate_voxel_instance(m=3, k=3, occupied_count=3, seed=1)
print(f"\ninstance {instance.difficulty}: projection")
print(instance.projection_key.replace("/", "\n"))
print("exact scene count:", instance.count)
