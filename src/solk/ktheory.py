"""K-theory of the cell algebra of a presentation and its stationary limits.

The quotient cell model yields a six-term exact sequence whose boundary
matrix has one column per occurring germ class; K0 is its kernel, K1 its
cokernel.  It is the incidence matrix of the class graph (edges as nodes,
classes as arcs), so K0 is read off a spanning forest.  An incidence matrix
is totally unimodular, so K1 is free, one generator per component of the
class graph; the component indicators give the well-definedness check and
psi1, and no Smith form is taken.  The connecting endomorphism acts on K0
through trace pullbacks along the induced self-map and on K1 through
winding numbers; iterating gives the K-groups of the limit algebra as
stationary inductive limits.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from itertools import compress

from .germs import GermClass, QuotientModel, QuotientSummary, quotient_summary
from .intlin import IntMatrix, NotInvariant, rank
from .limits import StationaryLimitGroup, make_limit
from .model import Presentation, ValidationReport, validate


class NotWellDefined(RuntimeError):
    """The edge-level winding rule does not descend to the cokernel."""


class InvalidPresentation(ValueError):
    """The presentation fails validation; ``report`` holds the findings."""

    def __init__(self, report: ValidationReport):
        super().__init__(
            "presentation fails validation: " + "; ".join(f.message for f in report.errors())
        )
        self.report = report


def with_class_order(model: QuotientModel, order: str) -> QuotientModel:
    """Reorder the class tuple: 'lex' ascending or 'paper' descending.

    Descending lexicographic order reproduces the conventional (ba, ab, aa)
    ordering for the one-vertex two-edge examples used in regression tests.
    The copy shares the model's read-only tables.
    """
    if order == "lex":
        classes = tuple(sorted(model.classes, key=GermClass.sort_key))
    elif order == "paper":
        classes = tuple(sorted(model.classes, key=GermClass.sort_key, reverse=True))
    else:
        raise ValueError(f"unknown order '{order}'")
    reordered = copy.copy(model)
    object.__setattr__(reordered, "classes", classes)
    return reordered


def boundary_matrix(p: Presentation, model: QuotientModel) -> IntMatrix:
    """Boundary map: class (l, r) goes to e_l - e_r in edge coordinates.

    Rows are edges in declaration order, columns are the model's classes in
    order.  The column of a class with equal incoming and outgoing edge is
    zero.
    """
    idx = {e: i for i, e in enumerate(p.graph.edge_names())}
    rows = [[0] * len(model.classes) for _ in idx]
    for j, c in enumerate(model.classes):
        rows[idx[c.in_edge]][j] += 1
        rows[idx[c.out_edge]][j] -= 1
    return IntMatrix.from_rows(rows, cols=len(model.classes))


def edge_trace_row(p: Presentation, model: QuotientModel, edge: str) -> tuple[int, ...]:
    """Trace functional of an interior point of an edge, as a row over classes.

    A sequence entering the edge from its source vertex accumulates exactly
    the classes whose outgoing dart runs along the edge, so the interior
    trace is the sum of those class traces.
    """
    src = p.graph.edge(edge).source
    return tuple(
        1 if (c.vertex == src and c.out_edge == edge) else 0 for c in model.classes
    )


def trace_pullback_matrix(p: Presentation, model: QuotientModel) -> IntMatrix:
    """Matrix of trace precomposition with the connecting endomorphism.

    The row of a class sums a unit row for each vertex-class preimage and
    an edge trace row for each interior preimage.
    """
    k = len(model.classes)
    rows = _pullback_rows(p, model, [{i: 1} for i in range(k)])
    return IntMatrix(k, k, [x.get(j, 0) for x in rows for j in range(k)])


def _pullback_rows(
    p: Presentation, model: QuotientModel, rows: list[dict[int, int]]
) -> list[dict[int, int]]:
    """P @ R for the trace pullback P, without forming P; R and the result
    are given by their sparse rows, one per class.

    P = G + A Tr: G is the class map, A counts interior preimages and Tr
    holds the edge traces.  So row gtilde(c) gains R[c] for every class c,
    and row c gains tau_e = Tr_e @ R for each interior preimage (e, _) of c.
    """
    classes, graph = model.classes, p.graph
    index = {c: i for i, c in enumerate(classes)}
    tau: dict[str, dict[int, int]] = {e: {} for e in graph.edge_names()}
    X: list[dict[int, int]] = [{} for _ in classes]
    for c, row in zip(classes, rows):
        if c.vertex == graph.edge(c.out_edge).source:  # edge_trace_row's rule
            _add_row(tau[c.out_edge], row)
        _add_row(X[index[model.gtilde[c]]], row)
    for c, x in zip(classes, X):
        for e, _ in model.interior_preimage_table[c]:
            _add_row(x, tau[e])
    return X


def k_theory_of_g0(p: Presentation, model: QuotientModel) -> tuple[IntMatrix, int]:
    """K0 (a kernel lattice basis, columns in class coordinates) and the rank of K1."""
    _, k0_basis, psi1 = _boundary_k_theory(p, model)
    return k0_basis, psi1.rows


def psi_star_k0(p: Presentation, model: QuotientModel) -> IntMatrix:
    """Connecting endomorphism on K0, in the canonical kernel basis.

    Raises NotInvariant if the pullback fails to preserve the kernel
    lattice, which signals a modeling bug.
    """
    return _psi0(p, model, _class_forest(p, model))


def first_edge_matrix(p: Presentation) -> IntMatrix:
    """Edge-level winding transport: each edge to the first edge of its image."""
    edges = p.graph.edge_names()
    idx = {e: i for i, e in enumerate(edges)}
    n = len(edges)
    entries = [[0] * n for _ in range(n)]
    for j, e in enumerate(edges):
        entries[idx[p.edge_map[e].darts[0].edge]][j] = 1
    return IntMatrix.from_rows(entries, cols=n)


def psi_star_k1(p: Presentation, model: QuotientModel) -> IntMatrix:
    """Connecting endomorphism on K1, induced by the first-edge rule.

    K1 is free on the components of the class graph, ordered by their last
    edge.  A winding concentrated on one edge pulls back to total winding 1
    along the image path, homotoped into its first edge.  Well-definedness on
    the cokernel is checked: the rule must carry the image of the boundary
    map into itself.
    """
    return _boundary_k_theory(p, model)[2]


def _class_forest(p: Presentation, model: QuotientModel) -> IntMatrix:
    """K0 from a spanning forest of the class graph.

    The nodes are the edges and each class is an arc in_edge -> out_edge, so
    ker delta0 is the cycle lattice.  The forest grows from the last class to
    the first, so each fundamental cycle starts at its own non-tree class, with
    entry 1, and meets no other one: in class order the cycles are the HNF.
    """
    idx = {e: i for i, e in enumerate(p.graph.edge_names())}
    arcs = [(idx[c.in_edge], idx[c.out_edge]) for c in model.classes]
    component = list(range(len(idx)))
    # chain[w]: the tree path to w from the first node of its component,
    # +1 on a class taken from in_edge to out_edge.
    chain = [[0] * len(arcs) for _ in idx]
    cycles = []
    for j in reversed(range(len(arcs))):
        u, v = arcs[j]
        # chain[u] + j - chain[v]: j's fundamental cycle, or what re-bases v's side at u's
        step = [x - y for x, y in zip(chain[u], chain[v])]
        step[j] = 1
        a, b = component[u], component[v]
        if a == b:
            cycles.append(step)
            continue
        for w, c in enumerate(component):
            if c == b:
                component[w], chain[w] = a, [x + y for x, y in zip(chain[w], step)]
    return IntMatrix.from_rows(cycles[::-1], cols=len(arcs)).transpose()


def _psi0(p: Presentation, model: QuotientModel, k0_basis: IntMatrix) -> IntMatrix:
    """The trace pullback P written in the K0 basis K, from X = P @ K.

    K is a Z-basis of ker delta0 whose non-tree rows (the first nonzero row
    of each cycle) form the identity, so X = K psi0 exactly when
    delta0 @ X == 0, and psi0 is X in those rows: no system is solved.
    """
    classes, d = model.classes, k0_basis.cols
    cols = range(d)
    rows = map(k0_basis.row, range(len(classes)))
    K = [dict(zip(compress(cols, row), filter(None, row))) for row in rows]
    X = _pullback_rows(p, model, K)
    # delta0 @ X, one arc at a time: +row at in_edge, -row at out_edge.
    incidence: dict[str, dict[int, int]] = {e: {} for e in p.graph.edge_names()}
    for c, x in zip(classes, X):
        _add_row(incidence[c.in_edge], x)
        _add_row(incidence[c.out_edge], x, -1)
    if any(any(row.values()) for row in incidence.values()):
        raise NotInvariant("the trace pullback does not carry ker delta0 into itself")
    entries, t = [], 0
    for row, x in zip(K, X):
        if t < d and row.get(t):  # cycle t starts here, at its non-tree class
            dense = [0] * d
            for j, v in x.items():
                dense[j] = v
            entries += dense
            t += 1
    return IntMatrix(d, d, entries)


def _add_row(acc: dict[int, int], row: dict[int, int], sign: int = 1) -> None:
    for j, v in row.items():
        acc[j] = acc.get(j, 0) + sign * v


def _boundary_k_theory(
    p: Presentation, model: QuotientModel
) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """delta0, K0 from the spanning forest, and psi1 on K1 = coker delta0.

    The column of a class is e_in - e_out, so the 0/1 indicators of the
    class-graph components vanish on im delta0 and map Z^edges onto K1 with
    kernel im delta0 (an incidence matrix is totally unimodular).  Generator
    k, the k-th component by last edge, lifts to its component's first edge.
    """
    delta0, E = boundary_matrix(p, model), first_edge_matrix(p)
    k0_basis = _class_forest(p, model)
    last = model.edge_components
    roots = sorted(set(last))
    gens = IntMatrix.from_rows([[int(r == root) for r in last] for root in roots], cols=len(last))
    projected = gens @ E
    if not (projected @ delta0).is_zero():
        raise NotWellDefined("first-edge rule does not carry the boundary image into itself")
    lifts = [last.index(root) for root in roots]
    return delta0, k0_basis, projected.submatrix(range(len(roots)), lifts)


@dataclass(frozen=True)
class KTheoryReport:
    """Everything the pipeline computes for one presentation."""

    order: str
    model: QuotientModel  # summary.model with its classes in ``order``
    summary: QuotientSummary
    delta0: IntMatrix
    k0_basis: IntMatrix
    psi0: IntMatrix
    psi1: IntMatrix
    k0_limit: StationaryLimitGroup
    k1_limit: StationaryLimitGroup
    zn_target: str | None
    validation: ValidationReport


def ktheory_report(p: Presentation, order: str = "lex") -> KTheoryReport:
    """Run the full pipeline on a presentation.

    Raises InvalidPresentation when it fails validation.
    """
    report = validate(p)
    if not report.ok:
        raise InvalidPresentation(report)
    summary = quotient_summary(p)
    model = with_class_order(summary.model, order)

    delta0, k0_basis, psi1 = _boundary_k_theory(p, model)
    psi0 = _psi0(p, model, k0_basis)

    # Exactness bookkeeping for the six-term sequence.
    r = rank(delta0)
    if r + k0_basis.cols != len(model.classes):
        raise RuntimeError("rank(delta0) + rank(K0) differs from the number of classes")
    if r + psi1.rows != len(p.graph.edge_names()):
        raise RuntimeError("rank(delta0) + free rank(K1) differs from the number of edges")

    zn_target = None
    if summary.hausdorff and summary.connected and summary.degree is not None:
        zn_target = f"Z[1/{summary.degree}]"

    return KTheoryReport(
        order=order,
        model=model,
        summary=summary,
        delta0=delta0,
        k0_basis=k0_basis,
        psi0=psi0,
        psi1=psi1,
        k0_limit=make_limit(psi0),
        k1_limit=make_limit(psi1),
        zn_target=zn_target,
        validation=report,
    )
