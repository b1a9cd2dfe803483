"""Shared fixtures: named presentations and seeded random generators."""

from __future__ import annotations

import random
import sys

import solk.intlin
from solk import (
    Edge,
    Graph,
    IntMatrix,
    Presentation,
    parse_presentation,
    validate,
)
from solk.sft import SftPresentation, edge_shift

AABAB_TEXT = """solenoid v1
vertex p
edge a p p
edge b p p
map a -> a a b
map b -> a b
"""

FIBONACCI_TEXT = """solenoid v1
vertex p
edge a p p
edge b p p
map a -> a b
map b -> a
"""

DOUBLING_TEXT = """solenoid v1
vertex p
edge a p p
edge b p p
map a -> a b
map b -> a b
"""

THUE_MORSE_TEXT = """solenoid v1
vertex p
edge a p p
edge b p p
map a -> a b
map b -> b a
"""

TWO_VERTEX_TEXT = """solenoid v1
vertex u
vertex v
edge a u v
edge b v u
map a -> a b a
map b -> b a b
"""


# Three class-graph components, {e1, e2}, {e3} and {e0, e4, e5}; two are
# non-trivial, and their order by last edge differs from the Smith order.
THREE_COMPONENTS_TEXT = """solenoid v1
vertex v0
vertex v1
edge e0 v1 v1
edge e1 v0 v1
edge e2 v1 v0
edge e3 v0 v0
edge e4 v1 v1
edge e5 v1 v1
map e0 -> e4 e5 e0 e5
map e1 -> e4 e4 e0
map e2 -> e5
map e3 -> e2 e1 e2 e1
map e4 -> e5 e5 e5 e0
map e5 -> e4 e4 e4
vmap v0 -> v1
vmap v1 -> v1
"""

def n_solenoid_text(n: int) -> str:
    return "solenoid v1\nvertex p\nedge a p p\nmap a -> " + " ".join(["a"] * n) + "\n"


def aabab():
    return parse_presentation(AABAB_TEXT)


def fibonacci():
    return parse_presentation(FIBONACCI_TEXT)


def n_solenoid(n: int):
    return parse_presentation(n_solenoid_text(n))


def endpoint_failures() -> dict[str, tuple]:
    """What the ``Presentation`` constructor refuses: fields that make no graph
    map, one entry per refusal, keyed by the message of its ``ValueError``."""
    p = parse_presentation(
        "solenoid v1\nvertex u\nvertex v\nedge a u u\nedge b u v\nmap a -> a a\nmap b -> a b\n"
    )
    g, images, vmap = p
    return {
        "image path of 'b' is empty": (g, {**images, "b": ()}, vmap),
        "image path of 'b' is a str, not a tuple of edge names": (g, {**images, "b": "ab"}, vmap),
        "image path given for undeclared edge zz": (g, {**images, "zz": ("a",)}, vmap),
        # Names of mixed types: the first offender in the caller's order is named.
        "image path given for undeclared edge 9": (g, {**images, 9: ("a",), "zz": ("a",)}, vmap),
        "edge 'b' has no image path": (g, {"a": images["a"]}, vmap),
        "image path of b names undeclared edge zz": (g, {**images, "b": ("a", "zz")}, vmap),
        "image path of b names undeclared edge 9": (g, {**images, "b": ("a", 9, "zz")}, vmap),
        "image path of 'b' is discontinuous": (g, {**images, "b": ("b", "b")}, vmap),
        "image vertex given for undeclared vertex w": (g, images, {**vmap, "w": "u"}),
        "image vertex given for undeclared vertex 9": (g, images, {**vmap, 9: "u", "w": "u"}),
        "vertex 'v' has no image vertex": (g, images, {"u": "u"}),
        "image of 'a' starts at u, but source vertex maps to v": (g, images, {"u": "v", "v": "v"}),
        "image of 'b' ends at v, but target vertex maps to u": (g, images, {"u": "u", "v": "u"}),
    }


def count_calls(monkeypatch, home, name: str) -> dict[str, int]:
    """Count calls of ``home.name`` made through any solk module that binds it."""
    original = getattr(home, name)
    counts = {name: 0}

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "solk" and module.__dict__.get(name) is original:
            monkeypatch.setattr(module, name, counted)
    return counts


def record_products(monkeypatch) -> list[IntMatrix]:
    """The left factor of each product that ``intlin``'s product kernel forms,
    ``IntMatrix.__matmul__`` and the eventual-lattice loop alike."""
    original, seen = solk.intlin._product, []

    def recorded(A, B):
        rows, cols = A[0], A[1]
        seen.append(IntMatrix(len(rows), len(cols), [x for row in rows for x in row]))
        return original(A, B)

    monkeypatch.setattr(solk.intlin, "_product", recorded)
    return seen


def record_calls(monkeypatch, home, name: str) -> list:
    """The first argument of each call of ``home.name`` made through any solk module."""
    original = getattr(home, name)
    seen = []

    def recorded(*args, **kwargs):
        seen.append(args[0])
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "solk" and module.__dict__.get(name) is original:
            monkeypatch.setattr(module, name, recorded)
    return seen


def wedge_text(k: int) -> str:
    """One vertex, k loop edges, images of length 2..4 drawn from random.Random(k)."""
    rng = random.Random(k)
    names = [f"e{i}" for i in range(k)]
    images = {e: [rng.choice(names) for _ in range(rng.randint(2, 4))] for e in names}
    lines = ["solenoid v1", "vertex p"] + [f"edge {e} p p" for e in names]
    lines += [f"map {e} -> {' '.join(w)}" for e, w in images.items()]
    return "\n".join(lines) + "\n"


def dense_edge_shift() -> IntMatrix:
    """Transfer matrix of the 56-state edge shift of an 8-state matrix with
    7 transitions per state (one seeded zero in each row and column)."""
    missing = random.Random(56).sample(range(8), 8)
    rows = [[0 if j == missing[i] else 1 for j in range(8)] for i in range(8)]
    return edge_shift(SftPresentation.from_matrix(rows)).adjacency.transpose()


def matrix_flag(m: IntMatrix) -> str:
    """The ``--matrix`` value of ``solk sft`` and ``solk limit`` for m."""
    return ";".join(",".join(map(str, row)) for row in m.to_rows())


def random_int_matrix(rng: random.Random, max_dim: int = 6, lo: int = -5, hi: int = 5) -> IntMatrix:
    rows = rng.randint(0, max_dim)
    cols = rng.randint(0, max_dim)
    return IntMatrix(rows, cols, [rng.randint(lo, hi) for _ in range(rows * cols)])


def random_unimodular(rng: random.Random, n: int, ops: int = 8) -> IntMatrix:
    m = IntMatrix.identity(n).to_rows()
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    if n and rng.random() < 0.5:
        k = rng.randrange(n)
        m[k] = [-x for x in m[k]]
    return IntMatrix.from_rows(m, cols=n)


def _paths_between(graph: Graph, start: str, end: str, max_len: int) -> list[tuple[str, ...]]:
    """All edge paths from start to end with 1..max_len edges."""
    out: list[tuple[str, ...]] = []
    frontier: list[tuple[str, tuple[str, ...]]] = [(start, ())]
    for _ in range(max_len):
        nxt = []
        for at, path in frontier:
            for e in graph.edges:
                if e.source != at:
                    continue
                extended = path + (e.name,)
                if e.target == end:
                    out.append(extended)
                nxt.append((e.target, extended))
        frontier = nxt
    return out


def random_presentation(rng: random.Random, max_vertices: int = 3, max_edges: int = 4,
                        max_image_len: int = 4):
    """One attempt at a random presentation; may return None."""
    nv = rng.randint(1, max_vertices)
    ne = rng.randint(1, max_edges)
    vertices = tuple(f"v{i}" for i in range(nv))
    edges = tuple(
        Edge(f"e{i}", rng.choice(vertices), rng.choice(vertices)) for i in range(ne)
    )
    # Reduced presentations only: germ classes need edges on both sides.
    for v in vertices:
        if not any(e.source == v for e in edges) or not any(e.target == v for e in edges):
            return None
    graph = Graph(vertices, edges)
    vmap = {v: rng.choice(vertices) for v in vertices}
    edge_map = {}
    for e in edges:
        options = _paths_between(graph, vmap[e.source], vmap[e.target], max_image_len)
        if not options:
            return None
        edge_map[e.name] = rng.choice(options)
    return Presentation(graph=graph, edge_map=edge_map, vertex_map=vmap)


def random_valid_presentations(seed: int, count: int, max_attempts: int = 60000):
    """Seeded stream of validated, primitive presentations."""
    rng = random.Random(seed)
    found = []
    for _ in range(max_attempts):
        p = random_presentation(rng)
        if p is None:
            continue
        report = validate(p)
        if report.ok and not report.warnings():
            found.append(p)
            if len(found) == count:
                break
    return found


def family_text(n: int, offsets: tuple[int, ...], rng: random.Random | None = None) -> str:
    """One vertex, n loops, ``e_i -> e_{i+o1} e_{i+o2} ...`` (indices mod n).

    With ``rng`` the edges get shuffled names and a shuffled declaration order.
    """
    labels = rng.sample(range(n), n) if rng else list(range(n))
    order = rng.sample(range(n), n) if rng else list(range(n))
    name = [f"e{labels[i]}" for i in range(n)]
    lines = ["solenoid v1", "vertex p"]
    lines += [f"edge {name[i]} p p" for i in order]
    lines += [f"map {name[i]} -> " + " ".join(name[(i + o) % n] for o in offsets) for i in order]
    return "\n".join(lines) + "\n"


def closure_stress_text(n: int, rng: random.Random | None = None) -> str:
    """The closure-stress family ``e_i -> e_{i+1} e_{i+7} e_{i+3}``: every one
    of the n^2 germs occurs."""
    return family_text(n, (1, 7, 3), rng)


def cyclic_text(n: int, rng: random.Random | None = None) -> str:
    """The imprimitive cyclic family ``e_i -> e_{i+1} e_{i+1}``."""
    return family_text(n, (1, 1), rng)


def _one_vertex_text(images: list[list[int]]) -> str:
    lines = ["solenoid v1", "vertex p"] + [f"edge e{i} p p" for i in range(len(images))]
    lines += [f"map e{i} -> " + " ".join(f"e{j}" for j in w) for i, w in enumerate(images)]
    return "\n".join(lines) + "\n"


def long_tail_text(n: int) -> str:
    """The long-tail family ``e_i -> e_0 e_{min(i+1, n-1)}``: the last-edge map
    is a chain of n - 1 steps into the fixed edge e_{n-1}."""
    return _one_vertex_text([[0, min(i + 1, n - 1)] for i in range(n)])


def one_edge_chain_text(n: int) -> str:
    """The one-edge-chain family ``e_i -> e_{i+1}``, ``e_{n-1} -> e_0 e_0``: edge
    e_i first has an image of length 2 at iterate n - i."""
    return _one_vertex_text([[i + 1] for i in range(n - 1)] + [[0, 0]])
