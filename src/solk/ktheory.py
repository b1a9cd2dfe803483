"""K-theory of the cell algebra of a presentation and its stationary limits.

The quotient cell model yields a six-term exact sequence whose boundary
matrix has one column per occurring germ class; K0 is its kernel, K1 its
cokernel.  It is the incidence matrix of the class graph (edges as nodes,
classes as arcs), so K0 is read off a spanning forest.  An incidence matrix
is totally unimodular, so K1 is free, one generator per component of the
class graph, and one Smith form of the boundary matrix gives it, the
well-definedness check and psi1.  The connecting endomorphism acts on K0
through trace pullbacks along the induced self-map and on K1 through
winding numbers; iterating gives the K-groups of the limit algebra as
stationary inductive limits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .germs import GermClass, QuotientModel, quotient_summary
from .intlin import CokernelStructure, IntMatrix, rank, restrict_endomorphism, smith_normal_form
from .limits import Classification, StationaryLimitGroup, make_limit
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
    """
    if order == "lex":
        classes = tuple(sorted(model.classes, key=GermClass.sort_key))
    elif order == "paper":
        classes = tuple(sorted(model.classes, key=GermClass.sort_key, reverse=True))
    else:
        raise ValueError(f"unknown order '{order}'")
    return replace(model, classes=classes)


def boundary_matrix(p: Presentation, model: QuotientModel) -> IntMatrix:
    """Boundary map: class (l, r) goes to e_l - e_r in edge coordinates.

    Rows are edges in declaration order, columns are the model's classes in
    order.  The column of a class with equal incoming and outgoing edge is
    zero.
    """
    edges = p.graph.edge_names()
    idx = {e: i for i, e in enumerate(edges)}
    cols = []
    for c in model.classes:
        col = [0] * len(edges)
        col[idx[c.in_edge]] += 1
        col[idx[c.out_edge]] -= 1
        cols.append(col)
    return IntMatrix.from_rows(
        [[cols[j][i] for j in range(len(cols))] for i in range(len(edges))],
        cols=len(cols),
    )


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
    index = {c: i for i, c in enumerate(model.classes)}
    trace = {e: edge_trace_row(p, model, e) for e in p.graph.edge_names()}
    rows = [[0] * k for _ in range(k)]
    for pre in model.classes:
        rows[index[model.gtilde[pre]]][index[pre]] += 1
    for c, row in zip(model.classes, rows):
        for e, _ in model.interior_preimage_table[c]:
            row[:] = [a + b for a, b in zip(row, trace[e])]
    return IntMatrix.from_rows(rows, cols=k)


def k_theory_of_g0(
    p: Presentation, model: QuotientModel
) -> tuple[IntMatrix, CokernelStructure]:
    """K0 (a kernel lattice basis, columns in class coordinates) and K1."""
    return _boundary_k_theory(p, model)[1:3]


def psi_star_k0(p: Presentation, model: QuotientModel) -> IntMatrix:
    """Connecting endomorphism on K0, in the canonical kernel basis.

    Raises NotInvariant if the pullback fails to preserve the kernel
    lattice, which signals a modeling bug.
    """
    pullback = trace_pullback_matrix(p, model)
    return restrict_endomorphism(pullback, _class_forest(p, model))


def first_edge_matrix(p: Presentation) -> IntMatrix:
    """Edge-level winding transport: each edge to the first edge of its image."""
    edges = p.graph.edge_names()
    idx = {e: i for i, e in enumerate(edges)}
    n = len(edges)
    entries = [[0] * n for _ in range(n)]
    for j, e in enumerate(edges):
        entries[idx[p.edge_map[e].darts[0].edge]][j] = 1
    return IntMatrix.from_rows(entries, cols=n)


@dataclass(frozen=True)
class Psi1:
    """Connecting endomorphism on K1 = cokernel of the boundary map.

    K1 is free: matrix acts on its generators in Smith order, the component
    indicators of the class graph, and moduli[i] = 0 is the (infinite) order
    of the i-th generator.
    """

    matrix: IntMatrix
    moduli: tuple[int, ...]

    def is_identity(self) -> bool:
        return self.matrix == IntMatrix.identity(self.matrix.rows)


def psi_star_k1(p: Presentation, model: QuotientModel) -> Psi1:
    """Connecting endomorphism on K1, induced by the first-edge rule.

    A winding concentrated on one edge pulls back to total winding 1 along
    the image path, homotoped into its first edge.  Well-definedness on the
    cokernel is checked: the rule must carry the image of the boundary map
    into itself.
    """
    return _boundary_k_theory(p, model)[3]


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


def _boundary_k_theory(
    p: Presentation, model: QuotientModel
) -> tuple[IntMatrix, IntMatrix, CokernelStructure, Psi1]:
    """delta0, K0 from the spanning forest, and K1 and psi1 from one Smith
    decomposition U delta0 V = D.  The pivots of an incidence matrix are 1,
    so the rows of U past the rank map Z^edges onto K1 with kernel im delta0.
    They are the 0/1 indicators of the class-graph components (each starts at
    e_i for its own non-pivot edge i and gets only pivot rows subtracted;
    checked below), so psi1 lifts each generator to one edge of its component.
    """
    delta0, E = boundary_matrix(p, model), first_edge_matrix(p)
    k0_basis = _class_forest(p, model)
    snf = smith_normal_form(delta0)
    k1 = snf.cokernel()
    if k1.torsion:
        raise RuntimeError(f"K1 of an incidence matrix has torsion {k1.torsion}")
    c = k1.free_rank
    gens = snf.U.submatrix(range(delta0.rows - c, delta0.rows), range(delta0.rows))
    projected = gens @ E
    if not (projected @ delta0).is_zero():
        raise NotWellDefined("first-edge rule does not carry the boundary image into itself")
    # Lift generator k to the unit vector at the first edge of its component.
    lifts = [next(i for i, x in enumerate(gens.row(k)) if x) for k in range(c)]
    if gens.submatrix(range(c), lifts) != IntMatrix.identity(c):
        raise RuntimeError("cokernel generators of delta0 are not component indicators")
    psi1 = Psi1(matrix=projected.submatrix(range(c), lifts), moduli=(0,) * c)
    return delta0, k0_basis, k1, psi1


@dataclass(frozen=True)
class KTheoryReport:
    """Everything the pipeline computes for one presentation."""

    order: str
    classes: tuple[GermClass, ...]
    edges: tuple[str, ...]
    delta0: IntMatrix
    trace_pullback: IntMatrix
    k0_basis: IntMatrix
    psi0: IntMatrix
    k1: CokernelStructure
    psi1: Psi1
    k0_limit: StationaryLimitGroup
    k0_classification: Classification
    k1_limit: StationaryLimitGroup
    k1_torsion_limit: tuple[int, ...]
    k1_classification: Classification
    hausdorff: bool
    hausdorff_witness: tuple[GermClass, GermClass] | None
    connected: bool
    degree: int | None
    nuclear_dimension_bound: int
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

    delta0, k0_basis, k1, psi1 = _boundary_k_theory(p, model)
    pullback = trace_pullback_matrix(p, model)
    psi0 = restrict_endomorphism(pullback, k0_basis)

    k0_limit = make_limit(psi0)
    k1_limit = make_limit(psi1.matrix)

    # Exactness bookkeeping for the six-term sequence.
    r = rank(delta0)
    if r + k0_basis.cols != len(model.classes):
        raise RuntimeError("rank(delta0) + rank(K0) differs from the number of classes")
    if r + k1.free_rank != len(p.graph.edge_names()):
        raise RuntimeError("rank(delta0) + free rank(K1) differs from the number of edges")

    zn_target = None
    if summary.hausdorff and summary.connected and summary.degree is not None:
        zn_target = f"Z[1/{summary.degree}]"

    return KTheoryReport(
        order=order,
        classes=model.classes,
        edges=p.graph.edge_names(),
        delta0=delta0,
        trace_pullback=pullback,
        k0_basis=k0_basis,
        psi0=psi0,
        k1=k1,
        psi1=psi1,
        k0_limit=k0_limit,
        k0_classification=k0_limit.classify(),
        k1_limit=k1_limit,
        k1_torsion_limit=(),
        k1_classification=k1_limit.classify(),
        hausdorff=summary.hausdorff,
        hausdorff_witness=summary.hausdorff_witness,
        connected=summary.connected,
        degree=summary.degree,
        nuclear_dimension_bound=summary.nuclear_dimension_bound,
        zn_target=zn_target,
        validation=report,
    )
