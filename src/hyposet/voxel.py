"""Gravity-constrained voxel stacks: projection, counting, exact enumeration.

A stack is a binary tensor of shape (K, R, C) with layer 0 at the bottom.
Gravity means every column is a bottom-anchored prefix, so a valid stack is
fully described by its per-column height; a top-down projection with ``q``
occupied cells therefore admits exactly ``k**q`` stacks at height budget k.
Generators produce square R = C = M grids; the checkers accept any R x C.
The task adapter judges and emits stacks as canonical strings (see
``layers_settled`` and ``texts_from_heights``); the tensor functions are
their reference. Only the tensor functions use numpy, and each imports it
when called, so generating, judging and counting run without it; the
tensor reference needs the ``test`` extra.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import EnumerationLimit, ParseFailure

if TYPE_CHECKING:
    import numpy as np

DEFAULT_ENUM_CAP = 10_000


def _as_binary_array(cells, ndim: int) -> np.ndarray:
    import numpy as np

    arr = np.asarray(cells, dtype=np.uint8)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d 0/1 array, got shape {arr.shape}")
    if arr.size and not np.isin(arr, (0, 1)).all():
        raise ValueError("cells must be 0/1")
    return arr


def project(stack) -> np.ndarray:
    """Top-down occupancy: 1 where any layer of the column is filled."""
    import numpy as np

    arr = _as_binary_array(stack, 3)
    return arr.any(axis=0).astype(np.uint8)


def check_gravity(stack) -> bool:
    """True iff every column's occupancy is a bottom-anchored prefix."""
    arr = _as_binary_array(stack, 3)
    if arr.shape[0] <= 1:
        return True
    return bool((arr[1:] <= arr[:-1]).all())


def validate_stack(stack, projection) -> bool:
    """True iff the stack matches the projection and satisfies gravity."""
    arr = _as_binary_array(stack, 3)
    proj = _as_binary_array(projection, 2)
    if arr.shape[1:] != proj.shape:
        raise ValueError(
            f"stack footprint {arr.shape[1:]} does not match projection {proj.shape}"
        )
    return check_gravity(arr) and bool((project(arr) == proj).all())


def count_admissible(projection, k: int) -> int:
    """k ** (occupied cells); exact in arbitrary precision. ``projection``
    is a 2-d 0/1 grid: nested lists or tuples, or a numpy array."""
    if k < 1:
        raise ValueError("height budget k must be >= 1")
    try:
        rows = [list(row) for row in projection]
    except TypeError:
        raise ValueError("expected a 2-d 0/1 array, got a 1-d one") from None
    cells = [v for row in rows for v in row]
    if any(hasattr(v, "__len__") for v in cells):
        raise ValueError("expected a 2-d 0/1 array, got more dimensions")
    if len({len(row) for row in rows}) > 1:
        raise ValueError("expected a 2-d 0/1 array, got ragged rows")
    if not all(v in (0, 1) for v in cells):
        raise ValueError("cells must be 0/1")
    return int(k) ** sum(1 for v in cells if v)


def occupied_columns(projection) -> list[tuple[int, int]]:
    """Occupied (row, col) positions in row-major order."""
    import numpy as np

    proj = _as_binary_array(projection, 2)
    return [tuple(ij) for ij in np.argwhere(proj)]


def stack_from_heights(projection, k: int, heights) -> np.ndarray:
    import numpy as np

    proj = _as_binary_array(projection, 2)
    arr = np.zeros((k,) + proj.shape, dtype=np.uint8)
    for (i, j), h in zip(occupied_columns(proj), heights):
        arr[:h, i, j] = 1
    arr.setflags(write=False)
    return arr


def enumerate_admissible_stacks(projection, k: int, *, cap: int | None = DEFAULT_ENUM_CAP):
    """Yield each valid stack exactly once.

    Order is deterministic: occupied columns in row-major order, height
    tuples ascending. Raises EnumerationLimit up front when the exact count
    exceeds ``cap`` (pass cap=None to stream without the guard).
    """
    total = count_admissible(projection, k)
    if cap is not None and total > cap:
        raise EnumerationLimit(f"{total} stacks exceed enumeration cap {cap}")
    proj = _as_binary_array(projection, 2)
    cols = occupied_columns(proj)

    def gen():
        for heights in itertools.product(range(1, k + 1), repeat=len(cols)):
            yield stack_from_heights(proj, k, heights)

    return gen()


def canon_stack(stack) -> str:
    """Row-major serialization; equal strings iff voxelwise-equal tensors."""
    arr = _as_binary_array(stack, 3)
    return "|".join(
        "/".join("".join(str(int(v)) for v in row) for row in layer) for layer in arr
    )


def stack_from_canon(canon: str) -> np.ndarray:
    import numpy as np

    layers = [
        [[int(ch) for ch in row] for row in layer.split("/")]
        for layer in canon.split("|")
    ]
    arr = np.asarray(layers, dtype=np.uint8)
    arr.setflags(write=False)
    return arr


def serialize_stack(stack) -> str:
    """Render a stack in the emission schema: ``LAYERS:`` then K blocks of
    0/1 rows, bottom layer first, blocks separated by blank lines."""
    arr = _as_binary_array(stack, 3)
    blocks = [
        "\n".join("".join(str(int(v)) for v in row) for row in layer)
        for layer in arr
    ]
    return "LAYERS:\n" + "\n\n".join(blocks)


# --- canonical strings: layers joined by "|", rows by "/", bottom first ---------

# (cell above, cell below) pairs a gravity-respecting stack can hold
_STACKED = frozenset({("/", "/"), ("0", "0"), ("0", "1"), ("1", "1")})


def layers_settled(layers) -> bool:
    """True iff each layer of ``layers`` (``/``-joined 0/1 rows, bottom
    first) has the shape of the one below and no 1 over a 0."""
    return all(
        len(above) == len(below) and _STACKED.issuperset(zip(above, below))
        for below, above in zip(layers, layers[1:])
    )


def texts_from_heights(projection, k: int, heights) -> tuple[str, str]:
    """(emission text, canonical key) of the stack whose occupied columns,
    in row-major order, have the given heights; the text equals
    ``serialize_stack(stack_from_heights(projection, k, heights))``."""
    it = iter(heights)
    grid = [[next(it, 0) if cell else 0 for cell in row] for row in projection]
    layers = [
        "/".join("".join("1" if h > level else "0" for h in row) for row in grid)
        for level in range(k)
    ]
    text = "LAYERS:\n" + "\n\n".join(layer.replace("/", "\n") for layer in layers)
    return text, "|".join(layers)


def parse_layer_rows(text: str) -> tuple[tuple[str, ...], ...]:
    """Parse the ``LAYERS:`` schema into K layers of R row strings of C
    ``0``/``1`` characters each, bottom layer first.

    Collects 0/1 rows after the marker; a blank line starts the next layer;
    the first other line ends the block. A row that is not 0/1 before any
    layer raises ParseFailure with its line number; ragged rows or layers
    raise ParseFailure.
    """
    lines = text.splitlines()
    start = None
    for idx, line in enumerate(lines):
        if line.strip() == "LAYERS:":
            start = idx + 1
            break
    if start is None:
        raise ParseFailure("expected a 'LAYERS:' marker line")
    layers: list[list[str]] = []
    current: list[str] = []
    for offset, line in enumerate(lines[start:], start=start):
        row = line.strip()
        if not row:
            if current:
                layers.append(current)
                current = []
            continue
        if not set(row) <= {"0", "1"}:
            if current or layers:
                break
            raise ParseFailure(f"expected a 0/1 row, got {row!r}", position=offset + 1)
        current.append(row)
    if current:
        layers.append(current)
    if not layers:
        raise ParseFailure("no layer rows after 'LAYERS:'")
    rows, cols = len(layers[0]), len(layers[0][0])
    for layer in layers:
        if len(layer) != rows or any(len(r) != cols for r in layer):
            raise ParseFailure("ragged layer blocks")
    return tuple(map(tuple, layers))


def parse_layers(text: str) -> np.ndarray:
    """Parse the ``LAYERS:`` schema back into a (K, R, C) tensor; the
    grammar and its errors are those of ``parse_layer_rows``."""
    import numpy as np

    layers = parse_layer_rows(text)
    arr = np.asarray(
        [[[int(ch) for ch in row] for row in layer] for layer in layers],
        dtype=np.uint8,
    )
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class VoxelInstance:
    """One generated problem: a projection plus height budget; the admissible
    set is re-creatable on demand and its exact size is ``count``."""

    projection: tuple[tuple[int, ...], ...]
    k: int
    count: int
    difficulty: str = ""
    instance_id: str = ""
    seed: int | None = None

    @functools.cached_property
    def projection_key(self) -> str:
        """The projection as one layer of a canonical key: under gravity, a
        stack's top-down projection is its bottom layer."""
        return "/".join("".join(str(int(v)) for v in row) for row in self.projection)

    @property
    def projection_array(self) -> np.ndarray:
        import numpy as np

        arr = np.asarray(self.projection, dtype=np.uint8)
        arr.setflags(write=False)
        return arr


def generate_voxel_instance(
    m: int,
    k: int,
    occupied_count: int,
    seed: int,
    *,
    difficulty: str = "",
    instance_id: str = "",
) -> VoxelInstance:
    """Place ``occupied_count`` occupied cells uniformly at random on an MxM
    grid; the admissible count is then k**occupied_count."""
    if not 0 <= occupied_count <= m * m:
        raise ValueError("occupied_count must be within the grid")
    rng = random.Random(seed)
    grid = [[0] * m for _ in range(m)]
    for pos in rng.sample(range(m * m), occupied_count):
        row, col = divmod(pos, m)
        grid[row][col] = 1
    return VoxelInstance(
        projection=tuple(map(tuple, grid)),
        k=k,
        count=count_admissible(grid, k),
        difficulty=difficulty or f"tp={occupied_count}",
        instance_id=instance_id,
        seed=seed,
    )
