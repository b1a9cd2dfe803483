"""K-theory of the cell algebra of a presentation and its stationary limits.

The quotient cell model yields a six-term exact sequence whose boundary
matrix has one column per occurring germ class; K0 is its kernel, K1 its
cokernel.  It is the incidence matrix of the class graph, which each
model holds as integer arcs: the nodes are the edges, by ``Graph.index``,
and each class is an arc.  K0 is its cycle lattice, kept as sparse rows from a
spanning forest; psi0, the trace pullback along the induced self-map, is
read at the cycle starts and checked arc by arc.  K1 is free on the
components (an incidence matrix is totally unimodular), and psi1 sums the
first-edge rule over them.  No Smith form is taken.  Iterating gives the
K-groups of the limit algebra as stationary inductive limits.  The report
is a ``typing.NamedTuple``.
"""

from __future__ import annotations

from typing import NamedTuple

from .germs import QuotientModel, QuotientSummary, quotient_summary
from .intlin import IntMatrix, NotInvariant, rank
from .limits import StationaryLimitGroup
from .model import Presentation, ValidationReport, validate

Rows = list[dict[int, int]]  # a sparse row per class, column -> nonzero entry
Forest = tuple[Rows, list[int]]  # K0 as rows, and the class where each cycle starts


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
    """The model with its classes in 'lex' (ascending) or 'paper' (descending) order.

    The model is taken as ``occurring_classes`` emits it: its classes strictly
    ascending, because the germ numbers follow (vertex, in edge, out edge).
    So 'lex' returns the model as it is, and 'paper' the model built from the
    classes and interior preimages reversed and ``gtilde`` renumbered to the
    reversed positions; like any model, it computes its own derived tables.
    Descending order reproduces the conventional (ba, ab, aa) ordering for the
    one-vertex two-edge examples used in regression tests.
    """
    if order == "lex":
        return model
    if order != "paper":
        raise ValueError(f"unknown order '{order}'")
    last = len(model.classes) - 1
    gtilde = tuple(last - j for j in reversed(model.gtilde))
    table = model.interior_preimage_table[::-1]
    return QuotientModel(model.classes[::-1], model.edge_points, gtilde, table)


def boundary_matrix(p: Presentation, model: QuotientModel) -> IntMatrix:
    """Boundary map: class (l, r) goes to e_l - e_r in edge coordinates.

    Rows are edges in declaration order, columns are the model's classes in
    order.  The column of a class with equal incoming and outgoing edge is
    zero.
    """
    rows = [[0] * len(model.classes) for _ in p.graph.edges]
    for j, (u, v) in enumerate(model.arcs):
        rows[u][j] += 1
        rows[v][j] -= 1
    return IntMatrix.from_rows(rows, cols=len(model.classes))


def trace_pullback_matrix(p: Presentation, model: QuotientModel) -> IntMatrix:
    """Matrix of trace precomposition with the connecting endomorphism.

    The row of a class sums a unit row for each vertex-class preimage and
    an edge trace row for each interior preimage.
    """
    k = len(model.classes)
    return _dense(_pullback_rows(p, model, [{i: 1} for i in range(k)]), k)


def _pullback_rows(p: Presentation, model: QuotientModel, rows: Rows) -> Rows:
    """P @ R for the trace pullback P, without forming P.

    P = G + A Tr: G is the class map, A counts interior preimages and Tr
    holds the edge traces.  So row gtilde(c) gains R[c] for every class c,
    and row c gains tau_e = Tr_e @ R for each interior preimage (e, _) of c.
    """
    index = p.graph.index
    tau: Rows = [{} for _ in index]
    X: Rows = [{} for _ in model.classes]
    for (_, v), g, row in zip(model.arcs, model.gtilde, rows):
        _add_row(tau[v], row)  # edge v's trace sums the classes leaving along it
        _add_row(X[g], row)
    for x, preimages in zip(X, model.interior_preimage_table):
        for e, _ in preimages:
            _add_row(x, tau[index[e]])
    return X


def k_theory_of_g0(p: Presentation, model: QuotientModel) -> tuple[IntMatrix, int]:
    """K0 (a kernel lattice basis, columns in class coordinates) and the rank of K1,
    the number of class-graph components."""
    k0_rows, starts = _class_forest(model.arcs, len(p.graph.edges))
    return _dense(k0_rows, len(starts)), len(set(model.edge_components))


def psi_star_k0(p: Presentation, model: QuotientModel) -> IntMatrix:
    """Connecting endomorphism on K0, in the canonical kernel basis.

    Raises NotInvariant if the pullback fails to preserve the kernel
    lattice, which signals a modeling bug.
    """
    return _psi0(p, model, _class_forest(model.arcs, len(p.graph.edges)))


def first_edge_matrix(p: Presentation) -> IntMatrix:
    """Edge-level winding transport: each edge to the first edge of its image."""
    index = p.graph.index
    entries = [[0] * len(index) for _ in index]
    for j, e in enumerate(index):
        entries[index[p.edge_map[e][0]]][j] = 1
    return IntMatrix.from_rows(entries, cols=len(index))


def psi_star_k1(p: Presentation, model: QuotientModel) -> IntMatrix:
    """Connecting endomorphism on K1, induced by the first-edge rule.

    K1 is free on the components of the class graph, ordered by their last
    edge.  A winding concentrated on one edge pulls back to total winding 1
    along the image path, homotoped into its first edge.  Well-definedness on
    the cokernel is checked: the rule must carry the image of the boundary
    map into itself.

    The column of a class is e_in - e_out, so the 0/1 indicators of the
    class-graph components vanish on im delta0 and map Z^edges onto K1 with
    kernel im delta0 (an incidence matrix is totally unimodular).  Generator
    k, the k-th component by last edge, lifts to its component's first edge.
    """
    last = model.edge_components
    roots = sorted(set(last))
    # C[k][i] = 1 when edge i is in component k; column j of the image is edge j's weights
    C = IntMatrix.from_rows([[int(x == root) for x in last] for root in roots], cols=len(last))
    image = C @ first_edge_matrix(p)
    if any(image.col(u) != image.col(v) for u, v in model.arcs):
        raise NotWellDefined("first-edge rule does not carry the boundary image into itself")
    return image.submatrix(range(len(roots)), [last.index(root) for root in roots])


def _class_forest(arcs: tuple[tuple[int, int], ...], nodes: int) -> Forest:
    """K0 from a spanning forest of the class graph: its rows, and the cycle starts.

    ker delta0 is the cycle lattice.  The forest grows from the last class to
    the first, so each fundamental cycle starts at its own non-tree class, with
    entry 1, and meets no other one: in class order the cycles are the HNF.
    """
    component = list(range(nodes))
    # chain[w]: the tree path to w from the first node of its component,
    # +1 on a class taken from in_edge to out_edge.
    chain: Rows = [{} for _ in range(nodes)]
    cycles = []
    for j in reversed(range(len(arcs))):
        u, v = arcs[j]
        # chain[u] + j - chain[v]: j's fundamental cycle, or what re-bases v's side at u's
        step = dict(chain[u])
        _add_row(step, chain[v], -1)
        step[j] = 1
        a, b = component[u], component[v]
        if a == b:
            cycles.append((j, step))
            continue
        for w, c in enumerate(component):
            if c == b:
                component[w] = a
                _add_row(chain[w], step)
    cycles.reverse()
    rows: Rows = [{} for _ in arcs]
    for t, (_, cycle) in enumerate(cycles):
        for j, x in cycle.items():
            rows[j][t] = x
    return rows, [j for j, _ in cycles]


def _psi0(p: Presentation, model: QuotientModel, forest: Forest) -> IntMatrix:
    """The trace pullback P written in the K0 basis K, from X = P @ K.

    K is a Z-basis of ker delta0 whose rows at the cycle starts form the
    identity, so X = K psi0 exactly when delta0 @ X == 0, and psi0 is X in
    those rows: no system is solved.
    """
    k0_rows, starts = forest
    X = _pullback_rows(p, model, k0_rows)
    # delta0 @ X, one arc at a time: +row at in_edge, -row at out_edge.
    incidence: Rows = [{} for _ in p.graph.edges]
    for (u, v), x in zip(model.arcs, X):
        _add_row(incidence[u], x)
        _add_row(incidence[v], x, -1)
    if any(incidence):
        raise NotInvariant("the trace pullback does not carry ker delta0 into itself")
    return _dense([X[j] for j in starts], len(starts))


def _add_row(acc: dict[int, int], row: dict[int, int], sign: int = 1) -> None:
    """acc += sign * row, keeping acc free of zero entries."""
    for j, v in row.items():
        if x := acc.get(j, 0) + sign * v:
            acc[j] = x
        else:
            acc.pop(j, None)


def _dense(rows: Rows, cols: int) -> IntMatrix:
    entries = [0] * (len(rows) * cols)
    for i, row in enumerate(rows):
        for j, x in row.items():
            entries[i * cols + j] = x
    return IntMatrix(len(rows), cols, entries)


class KTheoryReport(NamedTuple):
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

    delta0 = boundary_matrix(p, model)
    k0_rows, starts = forest = _class_forest(model.arcs, len(p.graph.edges))
    psi1 = psi_star_k1(p, model)
    psi0 = _psi0(p, model, forest)
    k0_basis = _dense(k0_rows, len(starts))

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
        k0_limit=StationaryLimitGroup(psi0),
        k1_limit=StationaryLimitGroup(psi1),
        zn_target=zn_target,
        validation=report,
    )
