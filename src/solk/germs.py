"""Finite model of the quotient of the unstable set by the germ relation.

A vertex point of the line presented by (Y, g) is remembered by the pair
(incoming edge, outgoing edge) at that vertex; interior points of an edge
form a single Hausdorff cell per edge.  This module computes which germ
classes occur, the induced self-map on them, and the preimage data needed
downstream, as tables indexed by class position.  A class occurs when it is
realised at a junction of an image path, lies in the eventual image of the
induced map on all germs (its cycles), or is reached from either.  The
closure runs on integer germ numbers, which follow the class order, and
builds a ``GermClass`` only for a class that occurs.  The records here are
``typing.NamedTuple``s; a ``GermClass`` orders as its tuple.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import NamedTuple

from .model import Presentation, _Checked


class UnreachableVertex(ValueError):
    """Some vertex carries no occurring germ class (presentation not reduced)."""


class DegreeNotConstant(RuntimeError):
    """Hausdorff + connected quotient with a non-constant preimage count."""


class GermClass(NamedTuple):
    """A vertex point of the quotient: (vertex, arriving edge, departing edge).

    An image path runs each of its edges forward, so a class is the edge
    pair at its vertex, and the field order is the class order.
    """

    vertex: str
    in_edge: str
    out_edge: str

    def label(self) -> str:
        return f"{self.in_edge}|{self.out_edge}@{self.vertex}"


class _QuotientModelFields(NamedTuple):
    classes: tuple[GermClass, ...]
    edge_points: tuple[str, ...]
    # Entry i is the position of the image of class i under the induced map.
    gtilde: tuple[int, ...]
    # Entry i lists the edge-interior preimages of class i: (edge, junction index).
    interior_preimage_table: tuple[tuple[tuple[str, int], ...], ...]


class QuotientModel(_Checked, _QuotientModelFields):
    """Cells of the quotient: germ classes plus one interior cell per edge.

    Every table is a tuple indexed by class position: entry i is about
    ``classes[i]``.  The derived tables are computed on first use.
    """

    def __new__(cls, classes, edge_points, gtilde, interior_preimage_table):
        table = tuple(interior_preimage_table)
        return super().__new__(cls, classes, edge_points, tuple(gtilde), table)

    @cached_property
    def preimage_counts(self) -> tuple[int, ...]:
        """Per class: its vertex preimages under gtilde plus its edge-interior preimages."""
        counts = list(map(len, self.interior_preimage_table))
        for j in self.gtilde:
            counts[j] += 1
        return tuple(counts)

    @cached_property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        """Class i as the arc (in edge, out edge) between edges numbered as in ``edge_points``."""
        index = {e: i for i, e in enumerate(self.edge_points)}
        return tuple((index[c.in_edge], index[c.out_edge]) for c in self.classes)

    @cached_property
    def edge_components(self) -> tuple[int, ...]:
        """Entry i is the index of the last edge of edge i's class-graph component."""
        root = list(range(len(self.edge_points)))

        def find(i: int) -> int:
            while root[i] != i:
                root[i] = i = root[root[i]]
            return i

        for u, v in self.arcs:
            a, b = find(u), find(v)
            # The larger index becomes the root, so each root is its component's last edge.
            root[min(a, b)] = max(a, b)
        return tuple(find(i) for i in range(len(root)))


def junction_germs(p: Presentation) -> tuple[GermClass, ...]:
    """Germs realized at interior junctions of image paths, deduplicated.

    Returned in discovery order (edges in declaration order, junctions left
    to right).
    """
    paths = (p.edge_map[e.name] for e in p.graph.edges)
    pairs = [(a, b) for path in paths for a, b in zip(path, path[1:])]
    return tuple(dict.fromkeys(GermClass(p.graph.edge(a).target, a, b) for a, b in pairs))


def occurring_classes(p: Presentation) -> QuotientModel:
    """The occurring germ classes and the model tables built over them.

    Occurring = forward closure, under the induced map, of the junction
    germs together with every germ lying on a cycle of the induced map
    over the full finite germ set.  Junction germs occur because every
    edge occurs densely in the line; cycle germs account for backward
    orbits of vertex points such as fixed points.

    Germ (a, b) of edge numbers is ``row[a] + col[b]``, numbered in class
    order (vertex, in edge, out edge), so the induced map is one integer
    table read from each edge's last and first image edge.  The germs on
    its cycles are its eventual image: the image of the germ set is taken
    again until it stops shrinking.
    """
    graph, edges = p.graph, p.graph.edges
    images = [[graph.index[x] for x in p.edge_map[e.name]] for e in edges]

    ins: dict[str, list[int]] = {v: [] for v in sorted(graph.vertices)}
    outs: dict[str, list[int]] = {v: [] for v in ins}
    for i in sorted(range(len(edges)), key=lambda i: edges[i].name):
        ins[edges[i].target].append(i)
        outs[edges[i].source].append(i)
    col = {b: k for v in ins for k, b in enumerate(outs[v])}
    row, n = {}, 0
    for v in ins:
        for a in ins[v]:
            row[a], n = n, n + len(outs[v])

    step: list[int] = []
    for v in ins:
        firsts = [col[images[b][0]] for b in outs[v]]
        for a in ins[v]:
            last = row[images[a][-1]]
            step += [last + f for f in firsts]
    # The germs on a cycle of the induced map are its eventual image.  Germ
    # (a, b) follows a under the last-image-edge map and b under the
    # first-image-edge map, so its tail is at most an edge's tail under one of
    # them: this stops within #edges rounds.
    occurring = set(range(len(step)))
    while (image := {step[k] for k in occurring}) != occurring:
        occurring = image

    # One pass over the junctions fills the interior-preimage table; their
    # forward closure joins the cycle germs, which are closed already.
    preimages: dict[int, list[tuple[str, int]]] = {}
    for e, path in zip(edges, images):
        for i, (a, b) in enumerate(zip(path, path[1:]), start=1):
            preimages.setdefault(row[a] + col[b], []).append((e.name, i))
    frontier = list(preimages)
    while frontier:
        k = frontier.pop()
        if k not in occurring:
            occurring.add(k)
            frontier.append(step[k])

    # Germ numbers follow the class order, so the classes come out sorted.
    names = graph.edge_names()
    classes: list[GermClass] = []
    position: dict[int, int] = {}  # germ number -> class position
    for v in ins:
        for a in ins[v]:
            for k, b in enumerate(outs[v], start=row[a]):
                if k in occurring:
                    position[k] = len(classes)
                    classes.append(GermClass(v, names[a], names[b]))

    covered = {c.vertex for c in classes}
    for v in p.graph.vertices:
        if v not in covered:
            raise UnreachableVertex(f"vertex '{v}' carries no occurring germ class")

    return QuotientModel(
        classes=tuple(classes),
        edge_points=names,
        gtilde=tuple(position[step[k]] for k in position),
        interior_preimage_table=tuple(tuple(preimages.get(k, ())) for k in position),
    )


def interior_preimages(p: Presentation, c: GermClass) -> tuple[tuple[str, int], ...]:
    """Edge-interior preimages of an occurring class: pairs (edge, junction index).

    Junction index i means the point between the i-th and (i+1)-st edges of
    the image path, 1-based.
    """
    model = occurring_classes(p)
    if c not in model.classes:
        raise ValueError(f"class {c.label()} does not occur")
    return model.interior_preimage_table[model.classes.index(c)]


def is_quotient_hausdorff(
    p: Presentation,
) -> tuple[bool, tuple[GermClass, GermClass] | None]:
    """Whether the quotient is Hausdorff, with a witness pair when it is not.

    Two classes at the same vertex cannot be separated exactly when they
    are approached through the same end of the same edge: when they share
    an in edge or an out edge.
    """
    return _hausdorff(occurring_classes(p))


def _hausdorff(model: QuotientModel) -> tuple[bool, tuple[GermClass, GermClass] | None]:
    # An edge ends at one vertex, so classes that share an in edge or an out
    # edge share their vertex; the witness is the first such pair in class order.
    arcs = model.arcs
    ins, outs = Counter(u for u, _ in arcs), Counter(v for _, v in arcs)
    for i, (u, v) in enumerate(arcs):
        if ins[u] > 1 or outs[v] > 1:
            j = next(j for j in range(i + 1, len(arcs)) if arcs[j][0] == u or arcs[j][1] == v)
            return False, (model.classes[i], model.classes[j])
    return True, None


class QuotientSummary(NamedTuple):
    """Diagnostics of the quotient, with the model they were computed on."""

    model: QuotientModel
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
    connected = len(set(model.edge_components)) <= 1

    degree = None
    if hausdorff and connected and model.classes:
        occurrences = Counter(x for path in p.edge_map.values() for x in path)
        edges = p.graph.edge_names()
        values = {*model.preimage_counts, *map(occurrences.__getitem__, edges)}
        if len(values) != 1 or min(values) < 2:
            counts = zip(model.classes, model.preimage_counts)
            labelled = {f"class {c.label()}": n for c, n in counts}
            labelled.update((f"edge {e}", occurrences[e]) for e in edges)
            raise DegreeNotConstant(
                f"expected one constant preimage count n >= 2, got {sorted(labelled.items())}"
            )
        degree = values.pop()

    return QuotientSummary(
        model=model,
        hausdorff=hausdorff,
        hausdorff_witness=witness,
        connected=connected,
        degree=degree,
        nuclear_dimension_bound=1,
    )
