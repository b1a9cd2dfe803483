"""Exact arbitrary-precision integer linear algebra.

Everything here works over plain Python ints (which are unbounded), so
normal-form pivoting never overflows and all results are exact.  What costs
time is coefficient growth, not the operation count.  So the Hermite normal
form keeps its basis reduced after every row it inserts (the Kannan-Bachem
scheme): on a one-vertex wedge with 24 loops it brings a 124 x 147 matrix to
normal form with every pivot entry under 64 bits, where unreduced
elimination did not finish in two minutes.  The product reads each column
of the right factor once as a strided slice, and forms a sparse row of the
left factor as a combination of the rows of the right factor it selects.

A ``SmithDecomposition`` (a ``typing.NamedTuple``, as ``CokernelStructure``)
answers rank, cokernel and solve for the matrix it factors; callers asking
several of these of one matrix keep it.  No report path takes one.
Kernels, saturations, solves, ranks and determinants need no Smith form:
``kernel_basis`` reads the kernel off the Hermite form of [A^T | I],
``saturate_columns`` meets I with one congruence at a time modulo the
pivots (so no report path takes a Hermite form), ``solve_echelon``
substitutes forward, and ``rank`` and ``determinant`` share one
fraction-free (Bareiss) elimination.  Nor does the cokernel of a boundary
matrix (see ``ktheory``).

``echelon_span``, the Gauss-Jordan elimination behind every stationary limit,
clears a row u at the pivot p of a row w as p u - a w with the multiplier
pair (p, a) divided by its gcd.  Most pivots it meets are 1 or divide their
multiplier; such a step is u - (a/p) w, with no product by p and no division
by the content.

The fraction-free eliminations (``_bareiss``, ``adjugate``) take row x to
(p x - a y) / prev for the pivot row y (Bareiss, Math. Comp. 22, 1968).  A row
with multiplier a == 0 is only rescaled by p / prev, and left alone when the
pivot repeats, as most rows of a sparse psi0 are.  Results built here from
computed ints go through ``IntMatrix._of``, without the ``index`` check.
"""

from __future__ import annotations

from itertools import islice
from math import gcd, lcm
from operator import index, mul
from typing import Iterable, NamedTuple, Sequence


class NotInvariant(ValueError):
    """A lattice is not carried into itself by the given endomorphism."""


class IntMatrix:
    """Immutable dense integer matrix, row-major.

    Empty matrices (zero rows and/or zero columns) are permitted and show
    up naturally as kernels of injective maps.
    """

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]):
        entries = tuple(map(index, entries))  # TypeError on a float or str, no truncation
        rows, cols = index(rows), index(cols)
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, "
                f"got {len(entries)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_entries", entries)

    @staticmethod
    def _of(rows: int, cols: int, entries: tuple[int, ...]) -> "IntMatrix":
        """A matrix over a tuple of ints that this module built: no checks."""
        m = object.__new__(IntMatrix)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "_entries", entries)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    def __reduce__(self):
        return (IntMatrix, (self.rows, self.cols, self._entries))

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        ncols = len(rows[0]) if rows else cols or 0  # no rows: cols, or 0, is the width
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        if cols is not None and cols != ncols:
            raise ValueError(f"rows of width {ncols} given for {cols} columns")
        return IntMatrix(len(rows), ncols, [x for r in rows for x in r])

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        if n < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        # Each 1 is followed by the n zeros before the next row's 1.
        return IntMatrix._of(n, n, ((1,) + (0,) * n) * (n - 1) + (1,) if n else ())

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, [0] * (rows * cols))

    @staticmethod
    def column(entries: Sequence[int]) -> "IntMatrix":
        return IntMatrix(len(entries), 1, entries)

    def __getitem__(self, idx: tuple[int, int]) -> int:
        i, j = idx
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(idx)
        return self._entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.rows:
            raise IndexError(i)
        return self._entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        if not 0 <= j < self.cols:
            raise IndexError(j)
        return self._entries[j :: self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        e, c = self._entries, self.cols
        return IntMatrix._of(c, self.rows, tuple([x for j in range(c) for x in e[j::c]]))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        n = other.cols
        cols = [other._entries[j::n] for j in range(n)]
        out = []
        for i in range(self.rows):
            row = self.row(i)
            support = [(k, a) for k, a in enumerate(row) if a]
            if 2 * len(support) < len(row):
                # Sparse row: a combination of the rows of other it selects.
                acc = [0] * n
                for k, a in support:
                    acc = [x + a * y for x, y in zip(acc, other.row(k))]
                out.extend(acc)
            else:
                out.extend([sum(map(mul, row, col)) for col in cols])
        return IntMatrix._of(self.rows, n, tuple(out))

    def mul_vector(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v := tuple(map(index, v))) != self.cols:  # TypeError on a float, as in __init__
            raise ValueError("vector length mismatch")
        return tuple([sum(map(mul, self.row(i), v)) for i in range(self.rows)])

    def power(self, k: int) -> "IntMatrix":
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative power")
        result = IntMatrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "IntMatrix":
        e, c = self._entries, self.cols
        if any(not 0 <= i < self.rows for i in row_idx) or any(not 0 <= j < c for j in col_idx):
            raise IndexError("submatrix index out of range")
        out = tuple([e[i * c + j] for i in row_idx for j in col_idx])
        return IntMatrix._of(len(row_idx), len(col_idx), out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.shape == other.shape
            and self._entries == other._entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._entries))

    def __repr__(self) -> str:
        return f"IntMatrix({self.to_rows()!r})"


class SmithDecomposition(NamedTuple):
    """U @ A @ V == D with U, V unimodular and D in Smith normal form."""

    A: IntMatrix
    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.D[i, i] for i in range(min(self.D.rows, self.D.cols)))

    def rank(self) -> int:
        return sum(1 for d in self.diagonal() if d != 0)

    def cokernel(self) -> CokernelStructure:
        """Structure of Z^rows modulo the column lattice of A."""
        torsion = tuple(d for d in self.diagonal() if d > 1)
        return CokernelStructure(free_rank=self.A.rows - self.rank(), torsion=torsion)

    def solve(self, C: IntMatrix) -> IntMatrix | None:
        """Integer solution X of A @ X = C, or None if there is none.

        When A has linearly independent columns the solution is unique; in
        general the free coordinates are set to zero.
        """
        if self.A.rows != C.rows:
            raise ValueError("row count mismatch")
        # A @ X == C iff D @ W == U @ C for X = V @ W: rows of U @ C past the rank vanish.
        r = self.rank()
        Y = (self.U @ C).to_rows()
        if any(any(row) for row in Y[r:]):
            return None
        W = [[0] * C.cols for _ in range(self.A.cols)]
        for i, (d, row) in enumerate(zip(self.diagonal(), Y[:r])):
            if any(y % d for y in row):
                return None
            W[i] = [y // d for y in row]
        X = self.V @ IntMatrix.from_rows(W, cols=C.cols)
        return X if self.A @ X == C else None


class CokernelStructure(NamedTuple):
    """Z^rows / (column lattice of A) up to isomorphism.

    torsion holds the invariant factors > 1, each dividing the next.
    """

    free_rank: int
    torsion: tuple[int, ...]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def _swap_cols(m: list[list[int]], i: int, j: int) -> None:
    for row in m:
        row[i], row[j] = row[j], row[i]


def smith_normal_form(A: IntMatrix) -> SmithDecomposition:
    """Smith normal form with both transforms.

    The pivot at each step is the entry of smallest nonzero absolute value
    in the remaining submatrix, ties broken by (row, col), so the output is
    reproducible.  The diagonal is nonnegative with each entry dividing the
    next and trailing zeros last.
    """
    m, n = A.rows, A.cols
    D = A.to_rows()
    U = IntMatrix.identity(m).to_rows()
    V = IntMatrix.identity(n).to_rows()

    for t in range(min(m, n)):
        while True:
            # Deterministic pivot search over the remaining submatrix.
            pivot = None
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    v = D[i][j]
                    if v != 0 and (best is None or abs(v) < best):
                        best = abs(v)
                        pivot = (i, j)
            if pivot is None:
                break
            pi, pj = pivot
            if pi != t:
                D[t], D[pi] = D[pi], D[t]
                U[t], U[pi] = U[pi], U[t]
            if pj != t:
                _swap_cols(D, t, pj)
                _swap_cols(V, t, pj)
            if D[t][t] < 0:
                D[t] = [-x for x in D[t]]
                U[t] = [-x for x in U[t]]
            d = D[t][t]
            # Floor-divide every entry below and to the right of the pivot;
            # remainders land in [0, d).
            for i in range(t + 1, m):
                if D[i][t] != 0:
                    q = D[i][t] // d
                    D[i] = [a - q * b for a, b in zip(D[i], D[t])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[t])]
            for j in range(t + 1, n):
                if D[t][j] != 0:
                    q = D[t][j] // d
                    for row in D:
                        row[j] -= q * row[t]
                    for row in V:
                        row[j] -= q * row[t]
            if any(D[i][t] for i in range(t + 1, m)) or any(D[t][j] for j in range(t + 1, n)):
                continue  # a smaller pivot appeared; reselect
            # Pivot must divide the rest of the submatrix for the
            # divisibility chain; drag the first offender into row t.
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if D[i][j] % d != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            D[t] = [a + b for a, b in zip(D[t], D[offender])]
            U[t] = [a + b for a, b in zip(U[t], U[offender])]

    return SmithDecomposition(
        A=A,
        U=IntMatrix.from_rows(U, cols=m),
        D=IntMatrix.from_rows(D, cols=n),
        V=IntMatrix.from_rows(V, cols=n),
    )


def _bareiss(A: IntMatrix) -> tuple[int, int]:
    """Rank over Q and the signed last pivot, by fraction-free elimination.

    Each entry left after a step is a minor of A, so the division by the
    previous pivot is exact and coefficients grow no faster than A's minors.
    For a nonsingular square A the signed last pivot is det(A).
    """
    M, n = A.to_rows(), A.cols
    r, prev, sign = 0, 1, 1
    for col in range(n):
        if r == A.rows:
            break
        j = col - n  # from the right: a row rebuilt at a pivot keeps the columns after it
        if not M[r][j]:
            pivot_row = next((i for i in range(r + 1, A.rows) if M[i][j]), None)
            if pivot_row is None:
                continue
            M[r], M[pivot_row] = M[pivot_row], M[r]
            sign = -sign
        p, width = M[r][j], -j - 1
        top = M[r][len(M[r]) - width :]
        for i in range(r + 1, A.rows):
            row = M[i]
            if a := row[j]:
                tail = zip(islice(row, len(row) - width, None), top)
                M[i] = [(x * p - a * y) // prev for x, y in tail]
            elif p != prev:
                M[i] = [x * p // prev for x in islice(row, len(row) - width, None)]
        prev = p
        r += 1
    return r, sign * prev


def rank(A: IntMatrix) -> int:
    """Rank over Q, by fraction-free (Bareiss) elimination."""
    return _bareiss(A)[0]


def determinant(A: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if A.rows != A.cols:
        raise ValueError("determinant of a non-square matrix")
    r, last = _bareiss(A)
    return last if r == A.rows else 0


def adjugate(A: IntMatrix) -> tuple[IntMatrix, int]:
    """adj(A) and det(A) of a nonsingular A, so that adj(A) @ A == det(A) I.

    Fraction-free Gauss-Jordan elimination of [A | I]: every entry after a
    step is a minor, so each division by the previous pivot is exact, and
    the last step leaves [+-det(A) I | +-adj(A)].
    """
    if A.rows != A.cols:
        raise ValueError("adjugate of a non-square matrix")
    n = A.rows
    M = [list(A.row(i)) + [int(i == j) for j in range(n)] for i in range(n)]
    sign, prev = 1, 1
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if M[i][k]), None)
        if pivot_row is None:
            raise ValueError("adjugate by elimination needs a nonsingular matrix")
        if pivot_row != k:
            M[k], M[pivot_row] = M[pivot_row], M[k]
            sign = -sign
        top, p = M[k], M[k][k]
        for i in range(n):
            if i != k and (a := M[i][k]):
                M[i] = [(x * p - a * y) // prev for x, y in zip(M[i], top)]
            elif i != k and p != prev:
                M[i] = [x * p // prev for x in M[i]]
        prev = p
    return IntMatrix(n, n, [sign * x for row in M for x in row[n:]]), sign * prev


def invert_unimodular(M: IntMatrix) -> IntMatrix:
    """Inverse of a matrix with determinant +-1; result is integral.

    The Smith form of a unimodular M is the identity, so U @ M @ V == I
    gives M^-1 == V @ U.
    """
    if M.rows != M.cols:
        raise ValueError("inverse of a non-square matrix")
    snf = smith_normal_form(M)
    if any(d != 1 for d in snf.diagonal()):
        raise ValueError("matrix is not unimodular")
    return snf.V @ snf.U


def hermite_normal_form_rows(A: IntMatrix) -> IntMatrix:
    """Row Hermite normal form with zero rows dropped.

    Pivots are positive, strictly to the right as rows descend, and the
    entries above each pivot are reduced into [0, pivot).  The result is
    the canonical basis of the row lattice of A.

    The rows of A are inserted one at a time into an echelon basis keyed by
    pivot column, and the basis is kept reduced after every insertion
    (Kannan and Bachem, SIAM J. Comput. 8, 1979; Cohen, GTM 138, Alg. 2.4.5),
    so no entry grows past what the reduced basis needs.
    """
    basis: dict[int, list[int]] = {}  # pivot column -> row
    for v in A.to_rows():
        changed = A.cols
        col = 0
        while True:
            col = next((c for c in range(col, A.cols) if v[c]), None)
            if col is None:
                break
            p = basis.get(col)
            if p is None:
                basis[col] = v if v[col] > 0 else [-x for x in v]
                changed = min(changed, col)
                break
            q, r = divmod(v[col], p[col])
            if r == 0:
                v = [a - q * b for a, b in zip(v, p)]
            else:
                # Replace the pivot row by the gcd combination; v keeps the
                # unimodular complement, which is zero in this column.
                g, x, y = xgcd(p[col], v[col])
                a, b = p[col] // g, v[col] // g
                basis[col], v = (
                    [x * s + y * t for s, t in zip(p, v)],
                    [a * t - b * s for s, t in zip(p, v)],
                )
                changed = min(changed, col)
        if changed < A.cols:
            _reduce_above_pivots(basis, changed)
    return IntMatrix.from_rows([basis[c] for c in sorted(basis)], cols=A.cols)


def _reduce_above_pivots(basis: dict[int, list[int]], start: int) -> None:
    """Reduce every entry above the pivots in columns >= start into [0, pivot).

    Pivot columns are taken left to right; subtracting a multiple of one
    pivot row changes only the columns from that pivot on, so the entries
    already reduced stay reduced.
    """
    pivots = sorted(basis)
    for j, c in enumerate(pivots):
        if c < start:
            continue
        p = basis[c]
        d = p[c]
        for i in pivots[:j]:
            row = basis[i]
            q = row[c] // d
            if q:
                basis[i] = [s - q * t for s, t in zip(row, p)]


def column_hnf(B: IntMatrix) -> IntMatrix:
    """Canonical basis (as columns) of the column lattice of B."""
    return hermite_normal_form_rows(B.transpose()).transpose()


def same_column_lattice(A: IntMatrix, B: IntMatrix) -> bool:
    if A.rows != B.rows:
        return False
    return column_hnf(A) == column_hnf(B)


def kernel_basis(A: IntMatrix) -> IntMatrix:
    """Z-basis of ker A, as columns, canonicalized by column HNF.

    The rows of the Hermite form of [A^T | I] that vanish on A^T span
    {(0, x) : A x = 0}, and their right halves are the row HNF of ker A
    (Cohen, GTM 138, §2.4).
    """
    m, n = A.rows, A.cols
    augmented = [list(A.col(j)) + [int(i == j) for i in range(n)] for j in range(n)]
    rows = hermite_normal_form_rows(IntMatrix.from_rows(augmented, cols=m + n)).to_rows()
    return IntMatrix.from_rows([r[m:] for r in rows if not any(r[:m])], cols=n).transpose()


def cokernel(A: IntMatrix) -> CokernelStructure:
    return smith_normal_form(A).cokernel()


def solve_columns(B: IntMatrix, C: IntMatrix) -> IntMatrix | None:
    return smith_normal_form(B).solve(C)


def solve_echelon(B: IntMatrix, C: IntMatrix) -> IntMatrix | None:
    """The solution X of B @ X = C for B in column echelon form, or None.

    Forward substitution on the pivot rows (each column's first nonzero row,
    strictly increasing, as in a column HNF) solves those rows exactly; only
    the other rows are checked.  Raises ValueError for any other B.
    """
    if B.rows != C.rows:
        raise ValueError("row count mismatch")
    pivots = [next((i for i, x in enumerate(B.col(j)) if x), B.rows) for j in range(B.cols)]
    if B.rows in pivots or any(a >= b for a, b in zip(pivots, pivots[1:])):
        raise ValueError("B is not in column echelon form")
    column_of = {i: j for j, i in enumerate(pivots)}
    coords: list[list[int]] = []  # entry j: the row of X along column j of B
    for i in range(B.rows):  # columns with a pivot below row i are zero in it
        acc, row, j = list(C.row(i)), B.row(i), column_of.get(i)
        for k, x in enumerate(coords):
            if row[k]:
                acc = [a - row[k] * y for a, y in zip(acc, x)]
        if any(acc) if j is None else any(a % row[j] for a in acc):
            return None
        if j is not None:
            coords.append([a // row[j] for a in acc])
    return IntMatrix._of(len(coords), C.cols, tuple([x for r in coords for x in r]))


def in_column_lattice(B: IntMatrix, v: Sequence[int]) -> bool:
    return solve_columns(B, IntMatrix.column(v)) is not None


def restrict_endomorphism(T: IntMatrix, B: IntMatrix) -> IntMatrix:
    """Matrix S with T @ B = B @ S, i.e. T written in the columns of B.

    B must be in column echelon form (see ``solve_echelon``), else ValueError.
    Raises NotInvariant when T does not carry the column lattice of B into
    itself.
    """
    if T.rows != T.cols:
        raise ValueError("endomorphism matrix must be square")
    if T.cols != B.rows:
        raise ValueError("shape mismatch between T and B")
    S = solve_echelon(B, T @ B)
    if S is None:
        raise NotInvariant("image of the lattice is not contained in the lattice")
    return S


def saturate_columns(A: IntMatrix) -> IntMatrix:
    """Canonical basis of Z^rows intersected with the Q-span of A's columns.

    Let E be the primitive reduced echelon basis of the span, with pivots
    p_j and L = lcm(p).  The integer points of the span are E diag(1/p) w for
    the w in Lambda = {w : E diag(L/p) w = 0 mod L}, w being their restriction
    to the pivot rows, so E diag(1/p) HNF(Lambda) is their column HNF.  It is
    E when every pivot is 1.  HNF(Lambda) is built modulo L
    (``_saturate_echelon``): no report path takes a Hermite form.
    """
    E = echelon_span(A)
    return _saturate_echelon(E, *_cleared_pivots(E))


def eventual_lattice(T: IntMatrix) -> tuple[int, IntMatrix, IntMatrix]:
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


def echelon_span(A: IntMatrix) -> IntMatrix:
    """Primitive reduced echelon basis, as columns, of the Q-span of A's columns.

    Each column has a positive pivot at its first nonzero row, zeros in the
    other pivot rows and content 1 (Gauss-Jordan elimination that divides by
    the content), so the basis depends only on the Q-span.  A row u is
    cleared at the pivot p of a row w as p u - a w, with the multiplier pair
    (p, a) divided by its gcd.  When that leaves p = 1 the step is u - a w,
    with no product by p and no content division: a column being reduced
    may carry a content until it is inserted, and a basis column whose own
    pivot is 1 has content 1 anyway.  A repeated column, as in the transfer
    matrix of an edge shift, goes in once.
    """
    basis: dict[int, list[int]] = {}  # pivot row -> column
    for v in map(list, dict.fromkeys(map(A.col, range(A.cols)))):
        for c, b in basis.items():
            a = v[c]
            if a:
                p = b[c]
                g = gcd(p, a)
                if g == p:
                    a //= p
                    v = [x - a * y for x, y in zip(v, b)]
                else:
                    p, a = p // g, a // g
                    v = _primitive([p * x - a * y for x, y in zip(v, b)])
        for pivot, x in enumerate(v):
            if x:
                break
        else:
            continue
        v = _primitive(v if v[pivot] > 0 else [-x for x in v])
        q = v[pivot]
        for c, b in basis.items():
            a = b[pivot]
            if a:
                g = gcd(q, a)
                if g == q:
                    a //= q
                    b = [x - a * y for x, y in zip(b, v)]
                    basis[c] = b if b[c] == 1 else _primitive(b)
                else:
                    p, a = q // g, a // g
                    basis[c] = _primitive([p * x - a * y for x, y in zip(b, v)])
        basis[pivot] = v
    columns = [basis[c] for c in sorted(basis)]
    return IntMatrix._of(A.rows, len(columns), tuple([x for row in zip(*columns) for x in row]))


def _primitive(v: list[int]) -> list[int]:
    g = gcd(*v)
    return v if g <= 1 else [x // g for x in v]
