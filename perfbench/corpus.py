"""Seeded inputs for the benchmark workloads.

Every input is a pure function of (workload, seed): the same seed gives
byte-identical files.  The program under test only ever sees the files.

- ``wedge-ktheory``: one-vertex wedges with k = 4..8 loop edges and random
  images of length 2..4, plus the named fixtures and their squares.  The
  cost of a wedge follows its number of occurring germ classes (the K0 rank
  is that number minus k - 1), which varies several-fold between random
  images of one k.  So random images are drawn until their class count is
  the median one for their k: the size mix is the same for every seed
  while the images are not.  There are more wedges with k = 6 and k = 8
  than with other k, so the median and the tail percentile of the item
  times fall inside those groups, not between two groups whose costs
  differ by a factor of two.  Wedges with k >= 9 are left out:
  from k = 9 on, some seeds take seconds to minutes per item (coefficient
  swell in the stationary limits) at class counts where others take 0.2 s.
- ``closure-classes``: the closure-stress family ``e_i -> e_{i+1} e_{i+7}
  e_{i+3}`` (odd n = 9..15) and the cyclic imprimitive family ``e_i ->
  e_{i+1} e_{i+1}`` (n = 6..14), each size under two relabellings.  The
  families are fixed; the seed picks the edge names and their declaration
  order, so the work is the same for every seed while the files differ.
  Item cost grows about as n^5, so larger n would take most of a pass and
  leave too few passes in a run to measure steadily.
- ``sft-limits``: irreducible nonnegative matrices with n = 2..8 states and
  7n transitions (so the edge shift has 14..56 states), each with four
  ambient vectors for the element batch.  Item cost grows with n in
  separate steps, so the counts per n put the median item inside the
  n = 4 group and the tail percentile inside the n = 5 group.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0

# k -> (median class count of 20000 random wedges with k edges, wedges per seed).
WEDGES = {4: (10, 4), 5: (14, 4), 6: (19, 16), 7: (24, 6), 8: (29, 24)}
WEDGE_MAX_DRAWS = 100_000
CLOSURE_STRESS_NS = range(9, 16, 2)
CLOSURE_CYCLIC_NS = range(6, 15)
CLOSURE_RELABELLINGS = 2
# n -> matrices per seed.
SFTS = {2: 6, 3: 6, 4: 6, 5: 10, 6: 2, 7: 1, 8: 1}
SFT_TRANSITIONS_PER_STATE = 7
SFT_ELEMENTS = 4

FIXTURES = {
    "aabab": {"a": "a a b", "b": "a b"},
    "fibonacci": {"a": "a b", "b": "a"},
    "doubling": {"a": "a b", "b": "a b"},
    "thue-morse": {"a": "a b", "b": "b a"},
    "solenoid-2": {"a": "a a"},
    "solenoid-3": {"a": "a a a"},
    "solenoid-5": {"a": "a a a a a"},
}
# Two vertices u, v with edges a: u -> v and b: v -> u.
TWO_VERTEX_EDGES = (("a", "u", "v"), ("b", "v", "u"))
TWO_VERTEX_MAP = {"a": "a b a", "b": "b a b"}


@dataclass(frozen=True)
class Item:
    """One input of a workload.

    ``path`` is the file written for it, which is all the command-line
    workloads need; ``matrix`` and ``elements`` (stage, ambient vector
    pairs) are an SFT item's contents.
    """

    name: str
    path: Path
    matrix: tuple[tuple[int, ...], ...] | None = None
    elements: tuple[tuple[int, tuple[int, ...]], ...] | None = None


def presentation_text(edges, images: dict[str, str]) -> str:
    """File text for edges given as (name, source, target) in declaration order."""
    vertices = []
    for _, source, target in edges:
        for v in (source, target):
            if v not in vertices:
                vertices.append(v)
    lines = ["solenoid v1"]
    lines += [f"vertex {v}" for v in vertices]
    lines += [f"edge {name} {source} {target}" for name, source, target in edges]
    lines += [f"map {name} -> {images[name]}" for name, _, _ in edges]
    return "\n".join(lines) + "\n"


def square(images: dict[str, str]) -> dict[str, str]:
    """The substitution composed with itself (all darts forward)."""
    return {e: " ".join(images[d] for d in img.split()) for e, img in images.items()}


def _loops(names) -> tuple[tuple[str, str, str], ...]:
    return tuple((name, "p", "p") for name in names)


def fixture_texts() -> dict[str, str]:
    out = {}
    for name, images in FIXTURES.items():
        edges = _loops(images)
        out[name] = presentation_text(edges, images)
        out[name + "-squared"] = presentation_text(edges, square(images))
    out["two-vertex"] = presentation_text(TWO_VERTEX_EDGES, TWO_VERTEX_MAP)
    out["two-vertex-squared"] = presentation_text(TWO_VERTEX_EDGES, square(TWO_VERTEX_MAP))
    return out


def wedge_class_count(images: dict[str, list[str]]) -> int:
    """Occurring germ classes of a one-vertex wedge, counted independently of solk.

    A germ is a pair (in edge, out edge) and maps to (last letter of the
    first image, first letter of the second).  The occurring germs are the
    forward closure of the junctions inside images and of every germ on a
    cycle of that map.
    """

    def step(g):
        return images[g[0]][-1], images[g[1]][0]

    owner: dict[tuple[str, str], tuple[str, str]] = {}
    occurring = {(w[i], w[i + 1]) for w in images.values() for i in range(len(w) - 1)}
    for start in ((a, b) for a in images for b in images):
        path, g = [], start
        while g not in owner:
            owner[g] = start
            path.append(g)
            g = step(g)
        if owner[g] == start:  # this walk closed a new cycle
            occurring.update(path[path.index(g):])
    frontier = list(occurring)
    while frontier:
        g = step(frontier.pop())
        if g not in occurring:
            occurring.add(g)
            frontier.append(g)
    return len(occurring)


def wedge_text(k: int, classes: int, rng: random.Random) -> str:
    """A random wedge with k loop edges and exactly ``classes`` occurring germ classes."""
    names = [f"e{i}" for i in range(k)]
    for _ in range(WEDGE_MAX_DRAWS):
        images = {e: [rng.choice(names) for _ in range(rng.randint(2, 4))] for e in names}
        if wedge_class_count(images) == classes:
            return presentation_text(_loops(names), {e: " ".join(w) for e, w in images.items()})
    raise ValueError(f"no wedge with k={k} and {classes} classes in {WEDGE_MAX_DRAWS} draws")


def relabelled_family_text(n: int, offsets: tuple[int, ...], rng: random.Random) -> str:
    """``e_i -> e_{i+o1} e_{i+o2} ...`` (indices mod n) under seeded names and order."""
    labels = rng.sample(range(n), n)
    name = [f"x{labels[i]}" for i in range(n)]
    order = rng.sample(range(n), n)
    images = {name[i]: " ".join(name[(i + o) % n] for o in offsets) for i in range(n)}
    return presentation_text(_loops(name[i] for i in order), images)


def irreducible_matrix(n: int, rng: random.Random) -> list[list[int]]:
    """Random nonnegative n x n matrix, irreducible through a random n-cycle."""
    cycle = rng.sample(range(n), n)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[cycle[i]][cycle[(i + 1) % n]] += 1
    for _ in range(SFT_TRANSITIONS_PER_STATE * n - n):
        rows[rng.randrange(n)][rng.randrange(n)] += 1
    return rows


def _rng(seed: int, *parts) -> random.Random:
    # String seeds hash with SHA-512, so streams do not depend on PYTHONHASHSEED.
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def generate(workload: str, seed: int) -> list[tuple[str, str]]:
    """(item name, file contents) pairs of a workload, in run order."""
    if workload == "wedge-ktheory":
        files = [(f"fixture-{name}", text) for name, text in fixture_texts().items()]
        for k, (classes, count) in WEDGES.items():
            for j in range(count):
                text = wedge_text(k, classes, _rng(seed, "wedge", k, j))
                files.append((f"wedge-k{k}-{j:02d}", text))
        return files
    if workload == "closure-classes":
        families = [("stress", n, (1, 7, 3)) for n in CLOSURE_STRESS_NS]
        families += [("cyclic", n, (1, 1)) for n in CLOSURE_CYCLIC_NS]
        return [
            (f"{family}-n{n}-{j}", relabelled_family_text(n, offsets, _rng(seed, family, n, j)))
            for family, n, offsets in families
            for j in range(CLOSURE_RELABELLINGS)
        ]
    if workload == "sft-limits":
        files = []
        for n, count in SFTS.items():
            for j in range(count):
                rng = _rng(seed, "sft", n, j)
                matrix = irreducible_matrix(n, rng)
                elements = [
                    [stage, [rng.randint(-3, 3) for _ in range(n)]] for stage in range(SFT_ELEMENTS)
                ]
                body = json.dumps({"matrix": matrix, "elements": elements}, sort_keys=True)
                files.append((f"sft-n{n}-{j:02d}", body + "\n"))
        return files
    raise ValueError(f"unknown workload '{workload}'")


def write_corpus(workload: str, seed: int, directory: Path) -> list[Item]:
    """Write a workload's input files into ``directory`` and load them back."""
    return write_files(workload, generate(workload, seed), directory)


def write_files(workload: str, files: list[tuple[str, str]], directory: Path) -> list[Item]:
    """Write generated (name, contents) pairs into ``directory`` and load them back."""
    directory.mkdir(parents=True, exist_ok=True)
    items = []
    for name, body in files:
        suffix = ".json" if workload == "sft-limits" else ".sol"
        path = directory / (name + suffix)
        path.write_text(body, encoding="utf-8")
        items.append(_load(name, path) if workload == "sft-limits" else Item(name, path))
    return items


def _load(name: str, path: Path) -> Item:
    data = json.loads(path.read_text(encoding="utf-8"))
    return Item(
        name=name,
        path=path,
        matrix=tuple(tuple(row) for row in data["matrix"]),
        elements=tuple((stage, tuple(v)) for stage, v in data["elements"]),
    )
