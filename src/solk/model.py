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

``#`` starts a comment and blank lines are ignored.  A token ``~e`` in an
image path denotes a reversed traversal of edge ``e``; the parser accepts
it but validation rejects orientation-reversing substitutions.

Every record of solk is a ``typing.NamedTuple``: it unpacks and indexes,
equals a plain tuple of equal values, and offers ``_fields`` and ``_replace``.
``Graph``, ``EdgePath`` and ``Presentation`` check their fields in ``__new__``.
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

    def dart_start(self, d: "Dart") -> str:
        e = self.edge(d.edge)
        return e.source if d.forward else e.target

    def dart_end(self, d: "Dart") -> str:
        e = self.edge(d.edge)
        return e.target if d.forward else e.source


class Dart(NamedTuple):
    """One-sided traversal of an edge; forward runs source to target."""

    edge: str
    forward: bool = True

    def reversed(self) -> "Dart":
        return Dart(self.edge, not self.forward)

    def __str__(self) -> str:
        return self.edge if self.forward else "~" + self.edge


class _EdgePathFields(NamedTuple):
    darts: tuple[Dart, ...]


class EdgePath(_Checked, _EdgePathFields):
    def __new__(cls, darts: tuple[Dart, ...]):
        if not darts:
            raise ValueError("edge path must be nonempty")
        return super().__new__(cls, darts)

    def start(self, graph: Graph) -> str:
        return graph.dart_start(self.darts[0])

    def end(self, graph: Graph) -> str:
        return graph.dart_end(self.darts[-1])

    def is_continuous(self, graph: Graph) -> bool:
        return all(
            graph.dart_end(a) == graph.dart_start(b)
            for a, b in zip(self.darts, self.darts[1:])
        )

    def __len__(self) -> int:
        return len(self.darts)

    def __str__(self) -> str:
        return " ".join(str(d) for d in self.darts)


class _PresentationFields(NamedTuple):
    graph: Graph
    edge_map: Mapping[str, EdgePath]
    vertex_map: Mapping[str, str]


class Presentation(_Checked, _PresentationFields):
    def __new__(
        cls, graph: Graph, edge_map: Mapping[str, EdgePath], vertex_map: Mapping[str, str]
    ):
        proxies = MappingProxyType(dict(edge_map)), MappingProxyType(dict(vertex_map))
        return super().__new__(cls, graph, *proxies)

    def dart_image(self, d: Dart) -> tuple[Dart, ...]:
        """The image path of a dart; a reversed dart runs its edge's image backwards."""
        img = self.edge_map[d.edge].darts
        return img if d.forward else tuple(x.reversed() for x in reversed(img))


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
    continuity of image paths) is enforced here; substitution-level checks
    live in validate().  A class is labelled ``in|out@vertex`` and ``~``
    marks a reversed dart, so an edge name may not contain ``|`` or start
    with ``~``, and a vertex name may not contain ``@``.
    """
    vertices: list[str] = []
    edges: list[Edge] = []
    edge_names: set[str] = set()
    graph: Graph | None = None  # rebuilt only when an edge was declared after the last build
    edge_map: dict[str, EdgePath] = {}
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
            if name in edge_names:
                raise ParseError(line_no, f"duplicate edge '{name}'")
            if src not in vertices:
                raise ParseError(line_no, f"unknown vertex '{src}'")
            if tgt not in vertices:
                raise ParseError(line_no, f"unknown vertex '{tgt}'")
            edges.append(Edge(name, src, tgt))
            edge_names.add(name)
        elif keyword == "map":
            if len(tokens) < 4 or tokens[2] != "->":
                raise ParseError(line_no, "expected 'map <edge> -> <edge> ...'")
            name = tokens[1]
            if name not in edge_names:
                raise ParseError(line_no, f"unknown edge '{name}'")
            if name in edge_map:
                raise ParseError(line_no, f"duplicate map for edge '{name}'")
            darts = []
            for tok in tokens[3:]:
                forward = not tok.startswith("~")
                ename = tok if forward else tok[1:]
                if ename not in edge_names:
                    raise ParseError(line_no, f"unknown edge '{ename}'")
                darts.append(Dart(ename, forward))
            path = EdgePath(tuple(darts))
            if graph is None or len(graph.edges) != len(edges):
                graph = Graph(tuple(vertices), tuple(edges))
            if not path.is_continuous(graph):
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
    if graph is None or len(graph.edges) != len(edges) or len(graph.vertices) != len(vertices):
        graph = Graph(tuple(vertices), tuple(edges))
    for e in edges:
        if e.name not in edge_map:
            raise ParseError(last_line, f"no image path for edge '{e.name}'")

    vertex_map = dict(vmap_explicit)
    for v in vertices:
        if v in vertex_map:
            continue
        inferred = None
        for e in edges:
            if e.source == v:
                inferred = edge_map[e.name].start(graph)
                break
            if e.target == v:
                inferred = edge_map[e.name].end(graph)
                break
        if inferred is None:
            raise ParseError(
                last_line, f"cannot infer image of isolated vertex '{v}'; add a vmap line"
            )
        vertex_map[v] = inferred

    return Presentation(graph=graph, edge_map=edge_map, vertex_map=vertex_map)


def serialize_presentation(p: Presentation) -> str:
    """Inverse of parse_presentation up to comments and whitespace."""
    lines = ["solenoid v1"]
    lines.extend(f"vertex {v}" for v in p.graph.vertices)
    lines.extend(f"edge {e.name} {e.source} {e.target}" for e in p.graph.edges)
    lines.extend(f"map {e.name} -> {p.edge_map[e.name]}" for e in p.graph.edges)
    lines.extend(f"vmap {v} -> {p.vertex_map[v]}" for v in p.graph.vertices)
    return "\n".join(lines) + "\n"


def abelianization(p: Presentation) -> IntMatrix:
    """Occurrence-count matrix of the substitution.

    Square, indexed by edges in declaration order; entry (f, e) counts the
    traversals of edge f (either direction) in the image of edge e.
    """
    index = p.graph.index
    n = len(index)
    entries = [[0] * n for _ in range(n)]
    for j, e in enumerate(index):
        for d in p.edge_map[e].darts:
            entries[index[d.edge]][j] += 1
    return IntMatrix.from_rows(entries, cols=n)


def substitution_power(p: Presentation, k: int) -> Presentation:
    """The k-fold composition of the substitution, as a presentation."""
    if k < 1:
        raise ValueError("power must be >= 1")
    result = p
    for _ in range(k - 1):
        new_map = {
            e: EdgePath(tuple(x for d in result.edge_map[e].darts for x in p.dart_image(d)))
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


def _is_primitive(M: IntMatrix) -> bool:
    """Whether some power of the non-negative matrix M is strictly positive."""
    return _is_primitive_pattern(
        [sum(1 << j for j, x in enumerate(M.row(i)) if x > 0) for i in range(M.rows)]
    )


def _is_primitive_pattern(power: list[int]) -> bool:
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
    (a) endpoints   (b) homeomorphism   (c) orientation
    (d) primitivity (warning only)      (e) eventual expansion
    """
    findings: list[Finding] = []
    graph = p.graph

    # (a) vertex map total and compatible with the image-path endpoints.
    for v in graph.vertices:
        w = p.vertex_map.get(v)
        if w is None or w not in graph.vertices:
            findings.append(Finding("error", "endpoints", f"vertex '{v}' has no image vertex"))
    for e in graph.edges:
        path = p.edge_map.get(e.name)
        if path is None:
            findings.append(Finding("error", "endpoints", f"edge '{e.name}' has no image path"))
            continue
        if not path.is_continuous(graph):
            message = f"image path of '{e.name}' is discontinuous"
            findings.append(Finding("error", "endpoints", message))
            continue
        for verb, end, at, want in (
            ("starts", "source", path.start(graph), p.vertex_map.get(e.source)),
            ("ends", "target", path.end(graph), p.vertex_map.get(e.target)),
        ):
            if want is not None and at != want:
                message = f"image of '{e.name}' {verb} at {at}, but {end} vertex maps to {want}"
                findings.append(Finding("error", "endpoints", message))
    if any(f.code == "endpoints" for f in findings):
        return ValidationReport(tuple(findings))

    # (c) orientation: reversed darts in image paths are unsupported.
    for e in graph.edge_names():
        for d in p.edge_map[e].darts:
            if not d.forward:
                message = f"unsupported: orientation-reversing image of '{e}' (dart {d})"
                findings.append(Finding("error", "orientation", message))
                break

    # (b) the substitution must not be invertible.
    if all(len(p.edge_map[e]) == 1 for e in graph.edge_names()):
        images = [p.edge_map[e].darts[0].edge for e in graph.edge_names()]
        if len(set(images)) == len(images):
            message = "substitution permutes the edges, so the map is invertible"
            findings.append(Finding("error", "homeomorphism", message))

    # (d) primitivity is the combinatorial stand-in for mixing.  Bit j of row
    # i of the occurrence pattern is set when edge i occurs in the image of
    # edge j, as in ``abelianization``.
    names, index = graph.edge_names(), graph.index
    pattern = [0] * len(names)
    for j, e in enumerate(names):
        for d in p.edge_map[e].darts:
            pattern[index[d.edge]] |= 1 << j
    if not _is_primitive_pattern(pattern):
        message = "occurrence matrix has no strictly positive power; mixing is unverified"
        findings.append(Finding("warning", "not-primitive", message))

    # (e) every edge must eventually have an image of length >= 2.  While an
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
            e = p.edge_map[e].darts[0].edge

    return ValidationReport(tuple(findings))
