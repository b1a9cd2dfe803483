"""Test-only oracles: the quadratic germ closure, the integer-power checks
and the one-factorization-per-question linear algebra.

These are the straightforward versions of ``germs.occurring_classes`` and
``model.validate``, kept verbatim so the linear-time library code can be
compared with them: the closure walks ``len(full)`` steps from every germ,
and primitivity and expansion are decided on exact integer powers of the
occurrence matrix (up to n^2 of them).  ``kernel_basis_oracle``,
``cokernel_oracle`` and ``solve_columns_oracle`` are the free functions of
``intlin`` as they were before ``SmithDecomposition`` answered these
questions itself; each runs its own Smith normal form.
``StationaryLimitGroupOracle`` builds the eventual lattice of a stationary
limit from the full power T^r, as ``StationaryLimitGroup`` did before it
stopped at the stabilization index.  ``hermite_normal_form_rows_oracle`` is
the column-by-column Hermite elimination that never reduces the rows below
the pivot, and ``matmul_oracle`` the entry-by-entry product over index
arithmetic, as ``intlin`` had them before the reducing Hermite kernel and
the column-slice product.  ``StationaryLimitGroupPowerOracle`` multiplies
out T, T^2, ... until the Bareiss ``rank`` stops dropping, saturates
that power with ``saturate_columns_oracle`` (the kernel of the left kernel,
two Smith forms) and solves with ``solve_columns``, as ``limits`` did before
it built the eventual lattice from echelon spans.  ``echelon_span_oracle``
is Gauss-Jordan elimination over the rationals, and
``trace_pullback_matrix_oracle`` the class-by-class scan for preimages that
``ktheory`` had before it built the matrix in one pass.  The Smith forms stay
here: ``saturate_columns_oracle`` takes its two kernels with
``kernel_basis_oracle``, and ``canonical_oracle`` retracts a limit element by
solving against the Smith form of ``T'``, as ``limits`` did before it used
the adjugate, and ``element_equal_oracle`` compares two elements at a common
stage, as ``limits`` did before it compared canonical representatives.
``gtilde_on_class`` and ``edge_trace_row`` are the induced
map on one class and the trace row of one edge by their definitions; the
closure and the pullback read both off integer tables.
``junction_germs_oracle`` reads the germs at the junctions of image paths
off the graph's edges, beside the library's checked ``junction_germs``.  ``psi1_oracle``
conjugates the first-edge matrix by the Smith transform ``U`` of the
boundary matrix and reduces modulo the invariant factors, as ``ktheory`` did
before it read psi1 off the class-graph components.  ``strongly_connected_oracle`` is the forward and backward
depth-first search from state 0 that ``sft`` had before it squared the
Boolean pattern of I + A, and ``edge_shift_oracle`` the comparison of every
pair of edges that ``sft.edge_shift`` made before it built one row per state.
``psi0_dense_oracle`` forms the dense trace pullback, multiplies it into the
K0 basis and solves the echelon system, as ``ktheory`` did before it read
psi0 off the class graph.  ``class_forest_oracle`` is the spanning forest
with a dense chain of length #classes per edge, as ``ktheory`` had it before
it kept the chains and the K0 basis as sparse rows.  ``exact_elimination_oracle``
takes rank, determinant and adjugate from sympy, or without it from
Gauss-Jordan elimination over ``fractions.Fraction``, to check the
fraction-free eliminations of ``intlin``.  ``saturate_echelon_kernel_oracle``
saturates an echelon basis by one ``kernel_basis`` (a Hermite form of
[A^T | I]) of its whole congruence system, as ``intlin`` did before it met
the congruences one at a time modulo the lcm of the pivots.
``eventual_lattice_oracle``, with its ``_cleared_pivots`` and
``_saturate_echelon``, is ``intlin.eventual_lattice`` as it was before the
loop kept its spans and products as lists of columns: every span and
product is a matrix, read back by strided column slices.  It keeps the two
tails ``intlin`` had before it took one path: when every pivot of E1 is 1 it
saturates in Z^d1 and solves from M, and otherwise it returns to Z^r by a
second elimination and solves from one product with T.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

from solk.germs import GermClass, QuotientModel, UnreachableVertex
from solk.intlin import (
    CokernelStructure,
    IntMatrix,
    NotInvariant,
    _reduce_above_pivots,
    column_hnf,
    echelon_span,
    invert_unimodular,
    kernel_basis,
    rank,
    restrict_endomorphism,
    saturate_columns,
    smith_normal_form,
    solve_columns,
    solve_echelon,
    xgcd,
)
from solk.limits import LimitElement, StationaryLimitGroup
from solk.ktheory import trace_pullback_matrix
from solk.model import Finding, Presentation, ValidationReport, abelianization
from solk.sft import SftPresentation


def all_germs_oracle(p: Presentation) -> list[GermClass]:
    graph = p.graph
    out: list[GermClass] = []
    for v in graph.vertices:
        in_edges = [e.name for e in graph.edges if e.target == v]
        out_edges = [e.name for e in graph.edges if e.source == v]
        for a in in_edges:
            for b in out_edges:
                out.append(GermClass(vertex=v, in_edge=a, out_edge=b))
    return out


def _meet(p: Presentation, in_edge: str, out_edge: str) -> GermClass:
    """The germ class of ``in_edge`` followed by ``out_edge`` at the vertex they share."""
    vertex = p.graph.edge(in_edge).target
    if p.graph.edge(out_edge).source != vertex:
        raise ValueError(f"edges {in_edge}, {out_edge} do not meet at a common vertex")
    return GermClass(vertex, in_edge, out_edge)


def gtilde_on_class(p: Presentation, c: GermClass) -> GermClass:
    """Image of a germ class under the induced map on the quotient.

    The class maps to (last edge of the image of the incoming edge, first
    edge of the image of the outgoing edge) at the image vertex.
    """
    return _meet(p, p.edge_map[c.in_edge][-1], p.edge_map[c.out_edge][0])


def junction_germs_oracle(p: Presentation) -> tuple[GermClass, ...]:
    """Germs at the junctions of image paths, deduplicated in discovery order."""
    out: list[GermClass] = []
    for e in p.graph.edge_names():
        edges = p.edge_map[e]
        for i in range(len(edges) - 1):
            germ = _meet(p, edges[i], edges[i + 1])
            if germ not in out:
                out.append(germ)
    return tuple(out)


def edge_trace_row(p: Presentation, model: QuotientModel, edge: str) -> tuple[int, ...]:
    """Trace functional of an interior point of an edge, as a row over classes.

    A sequence entering the edge from its source vertex accumulates exactly
    the classes that leave along the edge, so the interior trace is the sum
    of those class traces.
    """
    return tuple(int(c.out_edge == edge) for c in model.classes)


def occurring_classes_oracle(p: Presentation) -> QuotientModel:
    """The occurring germ classes and the model tables built over them.

    Occurring = forward closure, under the induced map, of the junction
    germs together with every germ lying on a cycle of the induced map
    over the full finite germ set.  Junction germs occur because every
    edge occurs densely in the line; cycle germs account for backward
    orbits of vertex points such as fixed points.
    """
    full = all_germs_oracle(p)
    step = {c: gtilde_on_class(p, c) for c in full}

    on_cycle: set[GermClass] = set()
    for c in full:
        x = c
        for _ in range(len(full)):
            x = step[x]
        # x is now on the eventual cycle of c; walk the cycle once.
        start = x
        cycle = [x]
        x = step[x]
        while x != start:
            cycle.append(x)
            x = step[x]
        on_cycle.update(cycle)

    occurring = set(junction_germs_oracle(p)) | on_cycle
    frontier = list(occurring)
    while frontier:
        nxt = step[frontier.pop()]
        if nxt not in occurring:
            occurring.add(nxt)
            frontier.append(nxt)

    classes = tuple(sorted(occurring))

    covered = {c.vertex for c in classes}
    for v in p.graph.vertices:
        if v not in covered:
            raise UnreachableVertex(f"vertex '{v}' carries no occurring germ class")

    position = {c: i for i, c in enumerate(classes)}
    table: list[list[tuple[str, int]]] = [[] for _ in classes]
    for e in p.graph.edge_names():
        edges = p.edge_map[e]
        for i in range(len(edges) - 1):
            table[position[_meet(p, edges[i], edges[i + 1])]].append((e, i + 1))

    return QuotientModel(
        classes=classes,
        edge_points=p.graph.edge_names(),
        gtilde=tuple(position[step[c]] for c in classes),
        interior_preimage_table=tuple(map(tuple, table)),
    )


def is_primitive_oracle(M: IntMatrix) -> bool:
    n = M.rows
    if n == 0:
        return True
    power = M
    for _ in range(n * n):
        if all(x > 0 for row in power.to_rows() for x in row):
            return True
        power = power @ M
    return False


def validate_oracle(p: Presentation) -> ValidationReport:
    """Substitution-level checks; see the finding codes below.

    These are necessary conditions for the presentation to define an
    expanding, mixing one-dimensional solenoid, not a full certificate:
    (a) homeomorphism   (b) primitivity (warning only)   (c) eventual expansion
    """
    findings: list[Finding] = []
    graph = p.graph

    # (a) the substitution must not be invertible.
    if all(len(p.edge_map[e]) == 1 for e in graph.edge_names()):
        images = [p.edge_map[e][0] for e in graph.edge_names()]
        if len(set(images)) == len(images):
            findings.append(
                Finding(
                    "error",
                    "homeomorphism",
                    "substitution permutes the edges, so the map is invertible",
                )
            )

    M = abelianization(p)

    # (b) primitivity is the combinatorial stand-in for mixing.
    if not is_primitive_oracle(M):
        findings.append(
            Finding(
                "warning",
                "not-primitive",
                "occurrence matrix has no strictly positive power; mixing is unverified",
            )
        )

    # (c) every edge must eventually have an image of length >= 2.
    n = len(graph.edges)
    if n > 0:
        lengths_ok = [False] * n
        power = M
        for _ in range(n):
            for j in range(n):
                if sum(power.col(j)) >= 2:
                    lengths_ok[j] = True
            power = power @ M
        for j, ok in enumerate(lengths_ok):
            if not ok:
                findings.append(
                    Finding(
                        "error",
                        "not-expanding",
                        f"edge '{graph.edge_names()[j]}' never expands under iteration",
                    )
                )

    return ValidationReport(tuple(findings))


def kernel_basis_oracle(A: IntMatrix) -> IntMatrix:
    """Z-basis of ker A, as columns, canonicalized by column HNF.

    The kernel of an integer matrix is saturated, so the columns also span
    the kernel over Q.
    """
    snf = smith_normal_form(A)
    diag = snf.diagonal()
    keep = [j for j in range(A.cols) if j >= len(diag) or diag[j] == 0]
    raw = snf.V.submatrix(range(A.cols), keep)
    return column_hnf(raw)


def cokernel_oracle(A: IntMatrix) -> CokernelStructure:
    """Structure of Z^rows modulo the column lattice of A."""
    diag = smith_normal_form(A).diagonal()
    r = sum(1 for d in diag if d != 0)
    torsion = tuple(d for d in diag if d > 1)
    return CokernelStructure(free_rank=A.rows - r, torsion=torsion)


def solve_columns_oracle(B: IntMatrix, C: IntMatrix) -> IntMatrix | None:
    """Integer solution X of B @ X = C, or None if there is none.

    When B has linearly independent columns the solution is unique; in
    general the free coordinates are set to zero.
    """
    if B.rows != C.rows:
        raise ValueError("row count mismatch")
    snf = smith_normal_form(B)
    diag = snf.diagonal()
    Y = snf.U @ C
    W = [[0] * C.cols for _ in range(B.cols)]
    for i in range(B.rows):
        d = diag[i] if i < len(diag) else 0
        for j in range(C.cols):
            y = Y[i, j]
            if d == 0:
                if y != 0:
                    return None
            else:
                if y % d != 0:
                    return None
                if i < B.cols:
                    W[i][j] = y // d
    X = snf.V @ IntMatrix.from_rows(W, cols=C.cols)
    return X if B @ X == C else None


def psi1_oracle(delta0: IntMatrix, E: IntMatrix) -> IntMatrix:
    """psi1 as U E U^-1 on the Smith generators of coker delta0, torsion rows reduced."""
    snf = smith_normal_form(delta0)
    m = delta0.rows
    diag = list(snf.diagonal()) + [0] * (m - min(delta0.rows, delta0.cols))
    conj = snf.U @ E @ invert_unimodular(snf.U)
    gens = [i for i in range(m) if diag[i] != 1]
    entries = []
    for gi in gens:
        for gj in gens:
            v = conj[gi, gj]
            entries.append(v % diag[gi] if diag[gi] > 1 else v)
    return IntMatrix(len(gens), len(gens), entries)


def saturate_columns_oracle(A: IntMatrix) -> IntMatrix:
    """Canonical basis of Z^rows intersected with the Q-span of A's columns."""
    left_kernel = kernel_basis_oracle(A.transpose())  # columns annihilate A from the left
    return kernel_basis_oracle(left_kernel.transpose())


def saturate_echelon_kernel_oracle(E: IntMatrix) -> IntMatrix:
    """The saturation of a primitive reduced echelon basis E by one
    ``kernel_basis`` of its congruence system [C | diag(m)]."""
    d = E.cols
    pivots = [next(x for x in E.col(j) if x) for j in range(d)]
    L = lcm(*pivots)
    if L == 1:
        return E
    scaled = IntMatrix.from_rows(
        [[x * (L // p) for x, p in zip(row, pivots)] for row in E.to_rows()], cols=d
    )
    congruences = [(row, gcd(L, *row)) for row in map(scaled.row, range(E.rows))]
    congruences = [([x // g % (L // g) for x in row], L // g) for row, g in congruences if g < L]
    s = len(congruences)
    system = IntMatrix.from_rows(
        [row + [m if k == t else 0 for k in range(s)] for t, (row, m) in enumerate(congruences)]
    )
    # The kernel's rows past d hold the multiples of the moduli, which w determines.
    H = kernel_basis(system).submatrix(range(d), range(d))
    return IntMatrix(E.rows, d, [x // L for row in (scaled @ H).to_rows() for x in row])


def eventual_lattice_oracle(T: IntMatrix) -> tuple[int, IntMatrix, IntMatrix]:
    """(k, E, T'): E is the echelon basis of the eventual lattice L of T, the
    saturation of the Q-span of im T^k, k <= r the stabilization index: the
    first k with rank T^(k+1) == rank T^k.  T' is the restriction of T to L,
    which is injective.  No power of T is multiplied out.  If T has full rank,
    L is Z^r and T' is T.  Otherwise im T is written in the pivot rows of its
    echelon basis E1, where a multiple M of T restricted to it is d1 x d1, and
    a basis Y is replaced by the echelon basis of M Y until its rank stops
    dropping.  Saturating and restricting take no Smith form, and no product
    with T unless a pivot of E1 is not 1.
    """
    if T.rows != T.cols:
        raise ValueError("endomorphism must be square")
    rank = (span := echelon_span(T)).cols  # span is E1, the basis of im T
    if rank == T.rows:  # T has full rank: the eventual lattice is Z^r and T' is T
        return 0, IntMatrix.identity(rank), T
    # A vector of im T is fixed by its entries in the pivot rows of E1, q_j in column j,
    # so M = L T|im T in those coordinates, L = lcm(q), takes only d1 rows of T.
    pivot_rows, L, scaled = _cleared_pivots(span)
    M = T.submatrix(pivot_rows, range(T.cols)) @ scaled
    # Echelon bases Y of im M^j until the rank stops dropping; image is M @ Y.
    Y, image, k = IntMatrix.identity(rank), M, 1
    while (nxt := echelon_span(image)).cols < rank:
        Y, rank, k = nxt, nxt.cols, k + 1
        image = M @ Y
    if L == 1:  # E1 carries Z^d1, its echelon bases and Hermite forms into Z^r
        basis = _saturate_echelon(Y, *_cleared_pivots(Y))
        eventual = span if k == 1 else span @ basis
        reduced = solve_echelon(basis, image if basis is Y else M @ basis)
    else:  # back to Z^r once, through the integral E1 diag(L/q) Y
        if k > 1:
            span = echelon_span(scaled @ Y)
            pivot_rows, L, scaled = _cleared_pivots(span)
        eventual = _saturate_echelon(span, pivot_rows, L, scaled)
        reduced = solve_echelon(eventual, T @ eventual)
    if reduced is None:
        raise NotInvariant("image of the eventual lattice is not contained in it")
    return k, eventual, reduced


def _cleared_pivots(E: IntMatrix) -> tuple[list[int], int, IntMatrix]:
    """The pivot rows of a column echelon E, the lcm L of its pivots p, and
    E diag(L/p), whose pivots all equal L (E itself when L is 1)."""
    d = E.cols
    rows = [next(i for i, x in enumerate(E.col(j)) if x) for j in range(d)]
    pivots = [E[i, j] for j, i in enumerate(rows)]
    L = lcm(*pivots)
    if L == 1:
        return rows, L, E
    return rows, L, IntMatrix(E.rows, d, [x * (L // pivots[t % d]) for t, x in enumerate(E._entries)])


def _saturate_echelon(E: IntMatrix, pivot_rows: list[int], L: int, scaled: IntMatrix) -> IntMatrix:
    """``saturate_columns`` for a primitive reduced echelon basis E and its
    ``_cleared_pivots``, so that no report path takes a Hermite form.  Lambda
    holds p_j e_j: it is Z where p_j = 1, and Z^d' on the d' other
    coordinates cut by the distinct congruences c.w = 0 mod m, the rows of
    E diag(L/p) divided by what each shares with L.  As L Z^d' lies in
    Lambda, a triangular basis from I meets them one at a time, entries off
    its pivots kept mod L, and is reduced above its pivots at the end: the
    Hermite form modulo D (Domich, Kannan and Trotter, Math. Oper. Res. 12,
    1987; Cohen, GTM 138, §2.4)."""
    if L == 1:
        return E
    nonunit = [j for j, i in enumerate(pivot_rows) if E[i, j] > 1]
    C, n = scaled.submatrix(range(E.rows), nonunit), len(nonunit)
    congruences = dict.fromkeys(  # (c, m), each once, in row order
        (tuple([x // g % (L // g) for x in row]), L // g)
        for row in map(C.row, range(C.rows)) if (g := gcd(L, *row)) < L
    )
    basis = {t: [int(s == t) for s in range(n)] for t in range(n)}  # row t: pivot at t
    for c, m in congruences:
        # Rows [c.b mod m | b] and [m | 0] span [c.w + m z | w], w in the lattice.
        # Bottom-up, [g | u] carries the gcd g of m and the first entries passed,
        # and row k becomes the xgcd complement of [g | u] and [v | b], led by 0.
        g, u = m, [0] * n
        for k in reversed(range(n)):
            b = basis[k]  # still the old row k
            if not (v := sum(map(mul, c, b)) % m):
                continue
            h, x, y = xgcd(g, v) if v % g else (g, 1, 0)
            a, t = g // h, v // h
            row = [(a * p - t * q) % L for p, q in zip(b, u)]
            row[k] = a * b[k]  # the pivot divides L, and may equal it
            if h < g:
                u, g = [(x * q + y * p) % L for p, q in zip(b, u)], h
            basis[k] = row
    _reduce_above_pivots(basis, 0)
    # Column nonunit[t] of the saturation is E diag(L/p) h / L for the row h = basis[t].
    out, d, columns = list(E._entries), E.cols, [C.col(s) for s in range(n)]
    for j, h in zip(nonunit, basis.values()):
        acc = [0] * E.rows
        for a, column in zip(h, columns):
            if a:
                acc = [x + a * y for x, y in zip(acc, column)]
        out[j::d] = [x // L for x in acc]
    return IntMatrix._of(E.rows, d, tuple(out))


def restrict_endomorphism_oracle(T: IntMatrix, B: IntMatrix) -> IntMatrix | None:
    """Matrix S with T @ B = B @ S, through the general Smith-form solve."""
    return solve_columns(B, T @ B)


class StationaryLimitGroupPowerOracle(StationaryLimitGroup):
    """The eventual lattice as the saturation of T^k, k found by Bareiss ranks
    of successive powers; element arithmetic is inherited."""

    def __init__(self, endomorphism: IntMatrix):
        if endomorphism.rows != endomorphism.cols:
            raise ValueError("endomorphism must be square")
        r = endomorphism.rows
        self.ambient_rank = r
        self.endomorphism = endomorphism
        # Successive powers until the rank stops dropping: T^k, k <= r.
        power, power_rank, k = IntMatrix.identity(r), r, 0
        nxt = endomorphism
        while power_rank > 0 and (nxt_rank := rank(nxt)) < power_rank:
            power, power_rank, k = nxt, nxt_rank, k + 1
            nxt = endomorphism @ power
        self.stabilization_index = k
        self._power = power
        self.eventual_basis = saturate_columns_oracle(power)
        self.eventual_rank = self.eventual_basis.cols
        if self.eventual_rank > 0:
            self.reduced_endomorphism = restrict_endomorphism_oracle(
                endomorphism, self.eventual_basis
            )
        else:
            self.reduced_endomorphism = IntMatrix.identity(0)

    def from_ambient(self, stage: int, vector: tuple[int, ...] | list[int]) -> LimitElement:
        """Element represented by an ambient Z^r vector at a stage.

        Pushing forward k more steps, k the stabilization index, lands the
        vector in the eventual lattice, where it is re-expressed in the
        lattice basis.
        """
        if len(vector) != self.ambient_rank:
            raise ValueError("vector length must equal the ambient rank")
        coords = self._power_in_eventual_basis.mul_vector(vector)
        return self._canonical(stage + self.stabilization_index, coords)

    @cached_property
    def _power_in_eventual_basis(self) -> IntMatrix:
        coords = solve_columns(self.eventual_basis, self._power)
        if coords is None:
            raise RuntimeError("pushed vector must lie in the eventual lattice")
        return coords


class StationaryLimitGroupOracle(StationaryLimitGroupPowerOracle):
    """The eventual lattice as the saturation of im T^r, and ``from_ambient``
    pushing forward r steps through T^r in lattice coordinates (the Smith-form
    solve of the power oracle); element arithmetic is inherited."""

    def __init__(self, endomorphism: IntMatrix):
        if endomorphism.rows != endomorphism.cols:
            raise ValueError("endomorphism must be square")
        r = endomorphism.rows
        self.ambient_rank = r
        self.endomorphism = endomorphism
        self._power = endomorphism.power(r) if r > 0 else IntMatrix.identity(0)
        self.eventual_basis = saturate_columns(self._power)
        self.eventual_rank = self.eventual_basis.cols
        if self.eventual_rank > 0:
            self.reduced_endomorphism = restrict_endomorphism(endomorphism, self.eventual_basis)
        else:
            self.reduced_endomorphism = IntMatrix.identity(0)

    def from_ambient(self, stage: int, vector: tuple[int, ...] | list[int]) -> LimitElement:
        """Element represented by an ambient Z^r vector at a stage.

        Pushing forward r more steps lands the vector in the eventual
        lattice, where it is re-expressed in the lattice basis.
        """
        if len(vector) != self.ambient_rank:
            raise ValueError("vector length must equal the ambient rank")
        coords = self._power_in_eventual_basis.mul_vector(vector)
        return self._canonical(stage + self.ambient_rank, coords)


def canonical_oracle(
    self: StationaryLimitGroup, stage: int, vector: tuple[int, ...]
) -> LimitElement:
    """``StationaryLimitGroup._canonical`` retracting by the Smith-form solve."""
    _reduced_snf = smith_normal_form(self.reduced_endomorphism)
    # Minimal stage: retract through T' while the vector stays integral.
    while stage > 0:
        pre = _reduced_snf.solve(IntMatrix.column(vector))
        if pre is None:
            break
        vector = pre.col(0)
        stage -= 1
    return LimitElement(self, stage, tuple(vector))


def element_equal_oracle(a: LimitElement, b: LimitElement) -> bool:
    """``element_equal`` by pushing both representatives to a common stage
    through T'; it takes any representative, canonical or not."""
    if a.group is not b.group:
        raise ValueError("elements of different groups")
    t, m = a.group.reduced_endomorphism, max(a.stage, b.stage)
    va, vb = a.vector, b.vector
    for _ in range(m - a.stage):
        va = t.mul_vector(va)
    for _ in range(m - b.stage):
        vb = t.mul_vector(vb)
    return va == vb


def hermite_normal_form_rows_oracle(A: IntMatrix) -> IntMatrix:
    """Row Hermite normal form with zero rows dropped.

    Pivots are positive, strictly to the right as rows descend, and the
    entries above each pivot are reduced into [0, pivot).  The result is
    the canonical basis of the row lattice of A.
    """
    H = A.to_rows()
    nrows, ncols = A.rows, A.cols
    r = 0
    for col in range(ncols):
        # Combine rows r.. so only row r has a nonzero in this column.
        pivot_row = next((i for i in range(r, nrows) if H[i][col] != 0), None)
        if pivot_row is None:
            continue
        H[r], H[pivot_row] = H[pivot_row], H[r]
        for i in range(r + 1, nrows):
            if H[i][col] == 0:
                continue
            g, x, y = xgcd(H[r][col], H[i][col])
            a, b = H[r][col] // g, H[i][col] // g
            H[r], H[i] = (
                [x * p + y * q for p, q in zip(H[r], H[i])],
                [-b * p + a * q for p, q in zip(H[r], H[i])],
            )
        if H[r][col] < 0:
            H[r] = [-x for x in H[r]]
        for i in range(r):
            q = H[i][col] // H[r][col]
            if q:
                H[i] = [a - q * b for a, b in zip(H[i], H[r])]
        r += 1
        if r == nrows:
            break
    return IntMatrix.from_rows(H[:r], cols=ncols)


def matmul_oracle(self: IntMatrix, other: IntMatrix) -> IntMatrix:
    if self.cols != other.rows:
        raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
    out = []
    for i in range(self.rows):
        ri = self.row(i)
        for j in range(other.cols):
            out.append(sum(ri[k] * other._entries[k * other.cols + j] for k in range(self.cols)))
    return IntMatrix(self.rows, other.cols, out)


def echelon_span_oracle(A: IntMatrix) -> IntMatrix:
    """Reduced column echelon form of A over Q (pivot at the first nonzero
    row of each column), each column scaled to a primitive integer vector
    with a positive pivot."""
    cols = [[Fraction(x) for x in A.col(j)] for j in range(A.cols)]
    basis: list[list[Fraction]] = []
    for row in range(A.rows):
        pick = next((c for c in cols if c[row] != 0), None)
        if pick is None:
            continue
        cols.remove(pick)
        pick = [x / pick[row] for x in pick]
        cols = [[x - c[row] * y for x, y in zip(c, pick)] for c in cols]
        basis = [[x - b[row] * y for x, y in zip(b, pick)] for b in basis] + [pick]
    out = []
    for b in basis:
        scale = 1
        for x in b:
            scale = scale * x.denominator // gcd(scale, x.denominator)
        ints = [int(x * scale) for x in b]
        g = gcd(*ints)
        out.append([x // g for x in ints])
    return IntMatrix.from_rows(out, cols=A.rows).transpose()


def trace_pullback_matrix_oracle(p: Presentation, model: QuotientModel) -> IntMatrix:
    """Matrix of trace precomposition with the connecting endomorphism.

    The row of a class sums a unit row for each vertex-class preimage and
    an edge trace row for each interior preimage.
    """
    k = len(model.classes)
    rows = []
    for i in range(k):
        row = [0] * k
        for pre in range(k):
            if model.gtilde[pre] == i:
                row[pre] += 1
        for e, _ in model.interior_preimage_table[i]:
            for j, x in enumerate(edge_trace_row(p, model, e)):
                row[j] += x
        rows.append(row)
    return IntMatrix.from_rows(rows, cols=k)


def class_forest_oracle(p: Presentation, model: QuotientModel) -> IntMatrix:
    """K0 from a spanning forest of the class graph, cycles as columns.

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


def psi0_dense_oracle(p: Presentation, model: QuotientModel) -> IntMatrix | None:
    """psi0 through the classes x classes trace pullback P: K psi0 = P @ K."""
    K = class_forest_oracle(p, model)
    return solve_echelon(K, trace_pullback_matrix(p, model) @ K)


def strongly_connected_oracle(A: IntMatrix) -> bool:
    n = A.rows
    if n == 0:
        return True

    def reach(start: int, forward: bool) -> set[int]:
        seen = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                linked = A[i, j] > 0 if forward else A[j, i] > 0
                if linked and j not in seen:
                    seen.add(j)
                    stack.append(j)
        return seen

    return len(reach(0, True)) == n and len(reach(0, False)) == n


def edge_shift_oracle(s: SftPresentation) -> SftPresentation:
    A = s.adjacency
    edges: list[tuple[int, int, int]] = []
    for i in range(A.rows):
        for j in range(A.cols):
            for k in range(A[i, j]):
                edges.append((i, j, k))
    n = len(edges)
    entries = [[0] * n for _ in range(n)]
    for a, (_, j, _) in enumerate(edges):
        for b, (i2, _, _) in enumerate(edges):
            if j == i2:
                entries[a][b] = 1
    states = tuple(f"{s.states[i]}>{s.states[j]}#{k}" for i, j, k in edges)
    return SftPresentation(states=states, adjacency=IntMatrix.from_rows(entries, cols=n))


def _rational_gauss_jordan(A: IntMatrix) -> tuple[int, Fraction, list[list[Fraction]]]:
    """Rank, the product of the pivots with the sign of the row exchanges,
    and the right half of the reduced [A | I], over the rationals."""
    n = A.rows
    M = [[Fraction(x) for x in A.row(i)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    r, det = 0, Fraction(1)
    for col in range(A.cols):
        pick = next((i for i in range(r, n) if M[i][col]), None)
        if pick is None:
            det = Fraction(0)
            continue
        if pick != r:
            M[r], M[pick] = M[pick], M[r]
            det = -det
        p = M[r][col]
        det *= p
        M[r] = [x / p for x in M[r]]
        for i in range(n):
            if i != r and M[i][col]:
                a = M[i][col]
                M[i] = [x - a * y for x, y in zip(M[i], M[r])]
        r += 1
    return r, det, [row[A.cols :] for row in M]


def exact_elimination_oracle(A: IntMatrix) -> tuple[int, int | None, IntMatrix | None]:
    """Rank over Q, and for a square A its determinant and, when it is
    nonsingular, its adjugate: from sympy when it is installed, otherwise
    by Gauss-Jordan elimination over ``fractions.Fraction``."""
    square = A.rows == A.cols
    try:
        import sympy
    except ImportError:
        r, det, inverse = _rational_gauss_jordan(A)
        if not square:
            return r, None, None
        adj = [int(det * x) for row in inverse for x in row] if det else None
        return r, int(det), None if adj is None else IntMatrix(A.rows, A.cols, adj)
    m = sympy.Matrix(A.rows, A.cols, list(A._entries))
    if not square:
        return m.rank(), None, None
    det = int(m.det())
    adj = IntMatrix(A.rows, A.cols, [int(x) for x in (det * m.inv())]) if det else None
    return m.rank(), det, adj
