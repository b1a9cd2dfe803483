"""Finite model of the quotient of the unstable set by the germ relation.

A vertex point of the line presented by (Y, g) is remembered by the pair
(incoming dart, outgoing dart) at that vertex; interior points of an edge
form a single Hausdorff cell per edge.  This module computes which germ
classes occur, the induced self-map on them, and the preimage data needed
downstream.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .model import Dart, Presentation


class UnreachableVertex(ValueError):
    """Some vertex carries no occurring germ class (presentation not reduced)."""


class DegreeNotConstant(RuntimeError):
    """Hausdorff + connected quotient with a non-constant preimage count."""


@dataclass(frozen=True)
class GermClass:
    """A vertex point of the quotient: (vertex, arriving dart, departing dart)."""

    vertex: str
    in_dart: Dart
    out_dart: Dart

    @property
    def in_edge(self) -> str:
        return self.in_dart.edge

    @property
    def out_edge(self) -> str:
        return self.out_dart.edge

    def sort_key(self) -> tuple[str, str, str]:
        return (self.vertex, self.in_edge, self.out_edge)

    def label(self) -> str:
        return f"{self.in_dart}|{self.out_dart}"


@dataclass(frozen=True)
class QuotientModel:
    """Cells of the quotient: germ classes plus one interior cell per edge."""

    classes: tuple[GermClass, ...]
    edge_points: tuple[str, ...]
    gtilde: Mapping[GermClass, GermClass]
    interior_preimage_table: Mapping[GermClass, tuple[tuple[str, int], ...]]

    def __post_init__(self):
        object.__setattr__(self, "gtilde", MappingProxyType(dict(self.gtilde)))
        object.__setattr__(
            self, "interior_preimage_table", MappingProxyType(dict(self.interior_preimage_table))
        )

    def vertex_preimages(self, c: GermClass) -> tuple[GermClass, ...]:
        return tuple(d for d in self.classes if self.gtilde[d] == c)

    def preimage_count(self, c: GermClass) -> int:
        return len(self.vertex_preimages(c)) + len(self.interior_preimage_table[c])


def _germ(p: Presentation, in_dart: Dart, out_dart: Dart) -> GermClass:
    graph = p.graph
    vertex = graph.dart_end(in_dart)
    if graph.dart_start(out_dart) != vertex:
        raise ValueError(f"darts {in_dart}, {out_dart} do not meet at a common vertex")
    if out_dart == in_dart.reversed():
        raise ValueError("outgoing dart reverses the incoming dart")
    return GermClass(vertex=vertex, in_dart=in_dart, out_dart=out_dart)


def junction_germs(p: Presentation) -> tuple[GermClass, ...]:
    """Germs realized at interior junctions of image paths, deduplicated.

    Returned in discovery order (edges in declaration order, junctions left
    to right).
    """
    seen: list[GermClass] = []
    for e in p.graph.edge_names():
        darts = p.edge_map[e].darts
        for i in range(len(darts) - 1):
            g = _germ(p, darts[i], darts[i + 1])
            if g not in seen:
                seen.append(g)
    return tuple(seen)


def gtilde_on_class(p: Presentation, c: GermClass) -> GermClass:
    """Image of a germ class under the induced map on the quotient.

    The class maps to (last dart of the image of the incoming dart, first
    dart of the image of the outgoing dart) at the image vertex.
    """
    return _germ(p, p.dart_image(c.in_dart)[-1], p.dart_image(c.out_dart)[0])


def _all_germs(p: Presentation) -> list[GermClass]:
    graph = p.graph
    in_darts: dict[str, list[Dart]] = {v: [] for v in graph.vertices}
    out_darts: dict[str, list[Dart]] = {v: [] for v in graph.vertices}
    for e in graph.edges:
        d = Dart(e.name)
        in_darts[e.target].append(d)
        out_darts[e.source].append(d)
    return [
        GermClass(vertex=v, in_dart=din, out_dart=dout)
        for v in graph.vertices
        for din in in_darts[v]
        for dout in out_darts[v]
    ]


_NEW, _ON_PATH, _DONE = 0, 1, 2


def _cycle_nodes(step: list[int]) -> bytearray:
    """Nodes on a cycle of the functional graph ``i -> step[i]``.

    Each node is walked once: a walk stops at the first node it has seen
    before, and has closed a cycle when that node is on its own path.
    """
    state = bytearray(len(step))
    on_cycle = bytearray(len(step))
    for start in range(len(step)):
        path = []
        x = start
        while state[x] == _NEW:
            state[x] = _ON_PATH
            path.append(x)
            x = step[x]
        if state[x] == _ON_PATH:
            y = x
            while not on_cycle[y]:
                on_cycle[y] = 1
                y = step[y]
        for y in path:
            state[y] = _DONE
    return on_cycle


def occurring_classes(p: Presentation) -> QuotientModel:
    """The occurring germ classes and the model tables built over them.

    Occurring = forward closure, under the induced map, of the junction
    germs together with every germ lying on a cycle of the induced map
    over the full finite germ set.  Junction germs occur because every
    edge occurs densely in the line; cycle germs account for backward
    orbits of vertex points such as fixed points.

    Germs are indexed by integers, so the induced map is a list and the
    whole computation is linear in the number of germs.
    """
    full = _all_germs(p)
    index = {(c.in_dart, c.out_dart): i for i, c in enumerate(full)}

    def index_of(g: GermClass) -> int:
        return index[g.in_dart, g.out_dart]

    step = [index_of(gtilde_on_class(p, c)) for c in full]
    occurring = _cycle_nodes(step)

    # One pass over the junctions seeds the closure and fills the
    # interior-preimage table.
    preimages: dict[int, list[tuple[str, int]]] = {}
    for e in p.graph.edge_names():
        darts = p.edge_map[e].darts
        for i in range(len(darts) - 1):
            j = index_of(_germ(p, darts[i], darts[i + 1]))
            preimages.setdefault(j, []).append((e, i + 1))
            occurring[j] = 1

    frontier = [i for i, on in enumerate(occurring) if on]
    while frontier:
        nxt = step[frontier.pop()]
        if not occurring[nxt]:
            occurring[nxt] = 1
            frontier.append(nxt)

    order = sorted((i for i, on in enumerate(occurring) if on), key=lambda i: full[i].sort_key())
    classes = tuple(full[i] for i in order)

    covered = {c.vertex for c in classes}
    for v in p.graph.vertices:
        if v not in covered:
            raise UnreachableVertex(f"vertex '{v}' carries no occurring germ class")

    return QuotientModel(
        classes=classes,
        edge_points=p.graph.edge_names(),
        gtilde={full[i]: full[step[i]] for i in order},
        interior_preimage_table={full[i]: tuple(preimages.get(i, ())) for i in order},
    )


def interior_preimages(p: Presentation, c: GermClass) -> tuple[tuple[str, int], ...]:
    """Edge-interior preimages of an occurring class: pairs (edge, junction index).

    Junction index i means the point between the i-th and (i+1)-st darts of
    the image path, 1-based.
    """
    model = occurring_classes(p)
    if c not in model.interior_preimage_table:
        raise ValueError(f"class {c.label()} does not occur")
    return model.interior_preimage_table[c]


def _arrival_end(d: Dart) -> tuple[str, str]:
    return (d.edge, "head" if d.forward else "tail")


def _departure_end(d: Dart) -> tuple[str, str]:
    return (d.edge, "tail" if d.forward else "head")


def is_quotient_hausdorff(
    p: Presentation,
) -> tuple[bool, tuple[GermClass, GermClass] | None]:
    """Whether the quotient is Hausdorff, with a witness pair when it is not.

    Two classes at the same vertex cannot be separated exactly when they
    are approached through the same end of the same edge, i.e. when they
    share an incoming or an outgoing dart.
    """
    return _hausdorff(occurring_classes(p))


def _hausdorff(model: QuotientModel) -> tuple[bool, tuple[GermClass, GermClass] | None]:
    by_vertex: dict[str, list[GermClass]] = {}
    for c in model.classes:
        by_vertex.setdefault(c.vertex, []).append(c)
    for group in by_vertex.values():
        for i, c1 in enumerate(group):
            ends1 = {_arrival_end(c1.in_dart), _departure_end(c1.out_dart)}
            for c2 in group[i + 1 :]:
                ends2 = {_arrival_end(c2.in_dart), _departure_end(c2.out_dart)}
                if ends1 & ends2:
                    return False, (c1, c2)
    return True, None


def edge_components(model: QuotientModel) -> list[int]:
    """Components of the class graph: the nodes are the edges and each class
    is an arc in_edge -- out_edge.  Entry i is the index (in ``edge_points``)
    of the last edge of edge i's component.
    """
    idx = {e: i for i, e in enumerate(model.edge_points)}
    root = list(range(len(idx)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    for c in model.classes:
        a, b = find(idx[c.in_edge]), find(idx[c.out_edge])
        # The larger index becomes the root, so each root is its component's last edge.
        root[min(a, b)] = max(a, b)
    return [find(i) for i in range(len(root))]


@dataclass(frozen=True)
class QuotientSummary:
    """Diagnostics of the quotient, with the model they were computed on."""

    model: QuotientModel
    class_count_per_vertex: dict[str, int]
    hausdorff: bool
    hausdorff_witness: tuple[GermClass, GermClass] | None
    connected: bool
    degree: int | None
    nuclear_dimension_bound: int


def quotient_summary(p: Presentation) -> QuotientSummary:
    """Diagnostics of the quotient space.

    When the quotient is Hausdorff and connected, the induced map has a
    constant number n >= 2 of preimages over every cell; that n is
    reported as the degree.  The one-dimensional cell structure bounds the
    nuclear dimension of the stable algebra by 1.  The occurring classes
    are computed once and returned as ``model``.
    """
    model = occurring_classes(p)
    hausdorff, witness = _hausdorff(model)
    connected = len(set(edge_components(model))) <= 1

    per_vertex: dict[str, int] = {v: 0 for v in p.graph.vertices}
    for c in model.classes:
        per_vertex[c.vertex] += 1

    degree = None
    if hausdorff and connected and model.classes:
        # preimage_count per class, with the vertex preimages counted in one pass.
        vertex_preimages = Counter(model.gtilde.values())
        counts = {
            f"class {c.label()}@{c.vertex}": vertex_preimages[c]
            + len(model.interior_preimage_table[c])
            for c in model.classes
        }
        occurrences = Counter(d.edge for path in p.edge_map.values() for d in path.darts)
        for e in p.graph.edge_names():
            counts[f"edge {e}"] = occurrences[e]
        values = set(counts.values())
        if len(values) != 1 or min(values) < 2:
            raise DegreeNotConstant(
                f"expected one constant preimage count n >= 2, got {sorted(counts.items())}"
            )
        degree = values.pop()

    return QuotientSummary(
        model=model,
        class_count_per_vertex=per_vertex,
        hausdorff=hausdorff,
        hausdorff_witness=witness,
        connected=connected,
        degree=degree,
        nuclear_dimension_bound=1,
    )
