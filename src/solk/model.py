"""Combinatorial presentations of one-dimensional graph solenoids.

A presentation is a finite directed graph together with a substitution
sending each edge to a nonempty edge path and each vertex to a vertex,
with matching endpoints.  The file format is line oriented:

    solenoid v1
    vertex p
    edge a p p
    edge b p p
    map a -> a a b
    map b -> a b
    vmap p -> p        # optional; inferred from the maps when omitted

``#`` starts a comment and blank lines are ignored.  An image path runs
each of its edges from source to target; a token ``~e`` (edge ``e`` run
backwards) is a parse error, as solk handles only orientation-preserving maps.

Every record of solk is a ``typing.NamedTuple``: it unpacks and indexes,
equals a plain tuple of equal values, and offers ``_fields`` and ``_replace``.
``Graph`` and ``Presentation`` check their fields in ``__new__``, so a
``Presentation`` is a graph map with matching endpoints by construction.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

from .intlin import IntMatrix


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.reason = message


class _Checked:
    """Mixin for a record that subclasses a ``NamedTuple`` of its fields to check them.

    The subclass checks in ``__new__``, which ``_make`` (so ``_replace``),
    pickling and copying run too.  No attribute can be set, so its derived
    tables, cached on first use, are read-only.
    """

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        # A read-only mapping goes as a dict, which the constructor wraps again.
        return type(self), tuple(dict(x) if type(x) is MappingProxyType else x for x in self)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Edge(NamedTuple):
    name: str
    source: str
    target: str


class _GraphFields(NamedTuple):
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]


class Graph(_Checked, _GraphFields):
    def __new__(cls, vertices: tuple[str, ...], edges: tuple[Edge, ...]):
        if len(vset := set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex names")
        if len({e.name for e in edges}) != len(edges):
            raise ValueError("duplicate edge names")
        for e in edges:
            if e.source not in vset or e.target not in vset:
                raise ValueError(f"edge {e.name} has undeclared endpoint")
        return super().__new__(cls, vertices, edges)

    @cached_property
    def index(self) -> Mapping[str, int]:
        """Edge name -> position in ``edges``: the one edge numbering, read by every module."""
        return MappingProxyType({e.name: i for i, e in enumerate(self.edges)})

    def edge(self, name: str) -> Edge:
        return self.edges[self.index[name]]

    def edge_names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.edges)


class _PresentationFields(NamedTuple):
    graph: Graph
    edge_map: Mapping[str, tuple[str, ...]]
    vertex_map: Mapping[str, str]


class Presentation(_Checked, _PresentationFields):
    """A graph map: each edge goes to an edge path that starts and ends at its ends' images.

    An image path is a tuple of edge names; the constructor turns any other
    iterable of names into one.  ``ValueError`` refuses an empty or ``str``
    image path; an image for an undeclared edge or vertex; an edge with no
    image path, or one that names an undeclared edge or is discontinuous; a
    vertex with no declared image; and an image path whose first or last
    vertex disagrees with the vertex map.
    """

    def __new__(
        cls, graph: Graph, edge_map: Mapping[str, tuple[str, ...]], vertex_map: Mapping[str, str]
    ):
        images = {}
        for name, path in edge_map.items():
            if isinstance(path, str):
                raise ValueError(f"image path of '{name}' is a str, not a tuple of edge names")
            images[name] = path = tuple(path)
            if not path:
                raise ValueError(f"image path of '{name}' is empty")
        images, vmap = MappingProxyType(images), MappingProxyType(dict(vertex_map))
        if extra := [e for e in images if e not in graph.index]:
            raise ValueError(f"image path given for undeclared edge {extra[0]}")
        vertices = set(graph.vertices)
        if extra := [v for v in vmap if v not in vertices]:
            raise ValueError(f"image vertex given for undeclared vertex {extra[0]}")
        if unmapped := [v for v in graph.vertices if vmap.get(v) not in vertices]:
            raise ValueError(f"vertex '{unmapped[0]}' has no image vertex")
        for e in graph.edges:
            if (path := images.get(e.name)) is None:
                raise ValueError(f"edge '{e.name}' has no image path")
            if undeclared := [x for x in path if x not in graph.index]:
                raise ValueError(f"image path of {e.name} names undeclared edge {undeclared[0]}")
            run = [graph.edge(x) for x in path]
            if any(a.target != b.source for a, b in zip(run, run[1:])):
                raise ValueError(f"image path of '{e.name}' is discontinuous")
            for verb, end, at, want in (
                ("starts", "source", run[0].source, vmap[e.source]),
                ("ends", "target", run[-1].target, vmap[e.target]),
            ):
                if at != want:
                    why = f"image of '{e.name}' {verb} at {at}, but {end} vertex maps to {want}"
                    raise ValueError(why)
        return super().__new__(cls, graph, images, vmap)


class Finding(NamedTuple):
    severity: str  # "error" | "warning"
    code: str
    message: str


class ValidationReport(NamedTuple):
    findings: tuple[Finding, ...] = ()

    @property
    def ok(self) -> bool:
        return not any(f.severity == "error" for f in self.findings)

    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == "error")

    def warnings(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == "warning")


def _tokenize(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line.split()


def parse_presentation(text: str) -> Presentation:
    """Parse the presentation file format.

    Graph-level structure (name uniqueness, declared endpoints, internal
    continuity of image paths) is refused at its line, read from the edges
    declared so far; the one ``Graph`` is built after the last line.  A vertex
    with no ``vmap`` line maps to the start of the image of the first edge at
    it, or to its end if that edge enters it.  An image path at odds with the
    vertex map fails the ``Presentation`` constructor and is refused at the
    last line.  Substitution-level checks live in validate().  A class is
    labelled ``in|out@vertex`` and a ``~e`` token, a reversed edge, is refused,
    so an edge name may not contain ``|`` or start with ``~``, and a vertex
    name may not contain ``@``.
    """
    vertices: list[str] = []
    table: dict[str, Edge] = {}
    edge_map: dict[str, tuple[str, ...]] = {}
    vmap_explicit: dict[str, str] = {}
    saw_header = False
    last_line = 0

    for line_no, tokens in _tokenize(text):
        last_line = line_no
        if not saw_header:
            if tokens != ["solenoid", "v1"]:
                raise ParseError(line_no, "expected header 'solenoid v1'")
            saw_header = True
            continue
        keyword = tokens[0]
        if keyword == "vertex":
            if len(tokens) != 2:
                raise ParseError(line_no, "expected 'vertex <name>'")
            name = tokens[1]
            if "@" in name:
                raise ParseError(line_no, f"vertex name '{name}' contains '@'")
            if name in vertices:
                raise ParseError(line_no, f"duplicate vertex '{name}'")
            vertices.append(name)
        elif keyword == "edge":
            if len(tokens) != 4:
                raise ParseError(line_no, "expected 'edge <name> <source> <target>'")
            name, src, tgt = tokens[1:]
            if "|" in name or name.startswith("~"):
                raise ParseError(line_no, f"edge name '{name}' contains '|' or starts with '~'")
            if name in table:
                raise ParseError(line_no, f"duplicate edge '{name}'")
            if src not in vertices:
                raise ParseError(line_no, f"unknown vertex '{src}'")
            if tgt not in vertices:
                raise ParseError(line_no, f"unknown vertex '{tgt}'")
            table[name] = Edge(name, src, tgt)
        elif keyword == "map":
            if len(tokens) < 4 or tokens[2] != "->":
                raise ParseError(line_no, "expected 'map <edge> -> <edge> ...'")
            name = tokens[1]
            if name not in table:
                raise ParseError(line_no, f"unknown edge '{name}'")
            if name in edge_map:
                raise ParseError(line_no, f"duplicate map for edge '{name}'")
            for tok in tokens[3:]:
                if tok.startswith("~"):
                    message = f"unsupported: orientation-reversing image of '{name}' (dart {tok})"
                    raise ParseError(line_no, message)
                if tok not in table:
                    raise ParseError(line_no, f"unknown edge '{tok}'")
            path = tuple(tokens[3:])
            if any(table[a].target != table[b].source for a, b in zip(path, path[1:])):
                raise ParseError(line_no, f"image path of '{name}' is discontinuous")
            edge_map[name] = path
        elif keyword == "vmap":
            if len(tokens) != 4 or tokens[2] != "->":
                raise ParseError(line_no, "expected 'vmap <vertex> -> <vertex>'")
            src, tgt = tokens[1], tokens[3]
            if src not in vertices:
                raise ParseError(line_no, f"unknown vertex '{src}'")
            if tgt not in vertices:
                raise ParseError(line_no, f"unknown vertex '{tgt}'")
            if src in vmap_explicit:
                raise ParseError(line_no, f"duplicate vmap for vertex '{src}'")
            vmap_explicit[src] = tgt
        else:
            raise ParseError(line_no, f"unknown directive '{keyword}'")

    if not saw_header:
        raise ParseError(last_line or 1, "empty input; expected header 'solenoid v1'")
    edges = table.values()
    inferred: dict[str, str] = {}  # a vertex's image, read off the first edge at it
    for e in edges:
        if (path := edge_map.get(e.name)) is None:
            raise ParseError(last_line, f"no image path for edge '{e.name}'")
        inferred.setdefault(e.source, table[path[0]].source)
        inferred.setdefault(e.target, table[path[-1]].target)
    vertex_map = dict(vmap_explicit)
    for v in vertices:
        if vertex_map.setdefault(v, inferred.get(v)) is None:
            raise ParseError(
                last_line, f"cannot infer image of isolated vertex '{v}'; add a vmap line"
            )

    graph = Graph(tuple(vertices), tuple(edges))
    try:
        return Presentation(graph=graph, edge_map=edge_map, vertex_map=vertex_map)
    except ValueError as exc:
        raise ParseError(last_line, str(exc)) from None


def serialize_presentation(p: Presentation) -> str:
    """Inverse of parse_presentation up to comments and whitespace."""
    lines = ["solenoid v1"]
    lines.extend(f"vertex {v}" for v in p.graph.vertices)
    lines.extend(f"edge {e.name} {e.source} {e.target}" for e in p.graph.edges)
    lines.extend(f"map {e.name} -> {' '.join(p.edge_map[e.name])}" for e in p.graph.edges)
    lines.extend(f"vmap {v} -> {p.vertex_map[v]}" for v in p.graph.vertices)
    return "\n".join(lines) + "\n"


def abelianization(p: Presentation) -> IntMatrix:
    """Occurrence-count matrix of the substitution.

    Square, indexed by edges in declaration order; entry (f, e) counts the
    occurrences of edge f in the image of edge e.
    """
    index = p.graph.index
    n = len(index)
    entries = [[0] * n for _ in range(n)]
    for j, e in enumerate(index):
        for f in p.edge_map[e]:
            entries[index[f]][j] += 1
    return IntMatrix.from_rows(entries, cols=n)


def substitution_power(p: Presentation, k: int) -> Presentation:
    """The k-fold composition of the substitution, as a presentation."""
    if k < 1:
        raise ValueError("power must be >= 1")
    result = p
    for _ in range(k - 1):
        new_map = {
            e: tuple(x for f in result.edge_map[e] for x in p.edge_map[f])
            for e in p.graph.edge_names()
        }
        new_vmap = {v: p.vertex_map[result.vertex_map[v]] for v in p.graph.vertices}
        result = Presentation(graph=p.graph, edge_map=new_map, vertex_map=new_vmap)
    return result


def _bool_product(X: list[int], Y: list[int]) -> list[int]:
    """Boolean product of square matrices stored as bit-rows.

    Row i of X·Y is the OR of the rows of Y selected by the bits of row i of X.
    """
    out = []
    for x in X:
        acc = 0
        while x:
            low = x & -x
            acc |= Y[low.bit_length() - 1]
            x ^= low
        out.append(acc)
    return out


def _is_primitive(power: list[int]) -> bool:
    """Whether some Boolean power of the 0/1 pattern, given as bit-rows, is all ones.

    By Wielandt's bound a primitive n x n matrix has M^k > 0 for every
    k >= (n-1)^2 + 1, and no power of an imprimitive one is positive; so it
    suffices to square the Boolean pattern of M until a power is positive
    or the exponent reaches that bound.
    """
    n = len(power)
    full = (1 << n) - 1
    exponent = 1
    while not all(row == full for row in power):
        if exponent >= (n - 1) ** 2 + 1:
            return False
        power = _bool_product(power, power)
        exponent *= 2
    return True


def validate(p: Presentation) -> ValidationReport:
    """Substitution-level checks; see the finding codes below.

    These are necessary conditions for the presentation to define an
    expanding, mixing one-dimensional solenoid, not a full certificate:
    (a) homeomorphism   (b) primitivity (warning only)   (c) eventual expansion.
    (a) and (b) read the images in one pass.  Endpoints need no check: the
    ``Presentation`` constructor owns it.
    """
    findings: list[Finding] = []
    names, index = p.graph.edge_names(), p.graph.index
    # Bit j of pattern[i] is set when edge i occurs in the image of edge j, as in abelianization.
    pattern = [0] * len(names)
    single_heads = set()  # the edges that are a whole image by themselves
    for j, e in enumerate(names):
        path = p.edge_map[e]
        if len(path) == 1:
            single_heads.add(path[0])
        for f in path:
            pattern[index[f]] |= 1 << j

    # (a) the substitution must not be invertible, as it is exactly when the
    # images are single edges, all distinct.
    if len(single_heads) == len(names):
        message = "substitution permutes the edges, so the map is invertible"
        findings.append(Finding("error", "homeomorphism", message))

    # (b) primitivity is the combinatorial stand-in for mixing.
    if not _is_primitive(pattern):
        message = "occurrence matrix has no strictly positive power; mixing is unverified"
        findings.append(Finding("warning", "not-primitive", message))

    # (c) every edge must eventually have an image of length >= 2.  While an
    # edge's image is one edge f, every later image of it is an image of f:
    # follow one-edge images until one is longer, or an edge repeats and the
    # edge never expands.
    for name in names:
        e, seen = name, set()
        while len(p.edge_map[e]) == 1:
            if e in seen:
                message = f"edge '{name}' never expands under iteration"
                findings.append(Finding("error", "not-expanding", message))
                break
            seen.add(e)
            e = p.edge_map[e][0]

    return ValidationReport(tuple(findings))
