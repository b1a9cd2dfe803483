"""Exact arbitrary-precision integer linear algebra.

Everything here works over plain Python ints (which are unbounded), so
normal-form pivoting never overflows and all results are exact.  Matrices
are small (dozens of rows at most), so the classical cubic algorithms are
plenty fast.

A ``SmithDecomposition`` answers rank, kernel, cokernel and solve for the
matrix it factors; callers asking several of these of one matrix keep it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


class NotInvariant(ValueError):
    """A lattice is not carried into itself by the given endomorphism."""


class IntMatrix:
    """Immutable dense integer matrix, row-major.

    Empty matrices (zero rows and/or zero columns) are permitted and show
    up naturally as kernels of injective maps.
    """

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[int]):
        entries = tuple(int(x) for x in entries)
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

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        nrows = len(rows)
        if nrows == 0:
            return IntMatrix(0, 0 if cols is None else cols, ())
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return IntMatrix(nrows, ncols, [x for r in rows for x in r])

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

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
        return self._entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(self._entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            [self._entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[k] * other._entries[k * other.cols + j] for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, out)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return IntMatrix(self.rows, self.cols, [a + b for a, b in zip(self._entries, other._entries)])

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return IntMatrix(self.rows, self.cols, [a - b for a, b in zip(self._entries, other._entries)])

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, [-a for a in self._entries])

    def scale(self, c: int) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, [c * a for a in self._entries])

    def mul_vector(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(self.row(i)[k] * v[k] for k in range(self.cols)) for i in range(self.rows))

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

    def is_zero(self) -> bool:
        return all(x == 0 for x in self._entries)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        out = []
        for i in range(self.rows):
            out.extend(self.row(i))
            out.extend(other.row(i))
        return IntMatrix(self.rows, self.cols + other.cols, out)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "IntMatrix":
        out = [self[i, j] for i in row_idx for j in col_idx]
        return IntMatrix(len(row_idx), len(col_idx), out)

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


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V == D with U, V unimodular and D in Smith normal form."""

    A: IntMatrix
    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.D[i, i] for i in range(min(self.D.rows, self.D.cols)))

    def rank(self) -> int:
        return sum(1 for d in self.diagonal() if d != 0)

    def kernel_basis(self) -> IntMatrix:
        """Z-basis of ker A, as columns, canonicalized by column HNF.

        The kernel of an integer matrix is saturated, so the columns also span
        the kernel over Q.
        """
        n = self.A.cols  # the diagonal's zeros come last: columns rank.. of V span ker A
        return column_hnf(self.V.submatrix(range(n), range(self.rank(), n)))

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


@dataclass(frozen=True)
class CokernelStructure:
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


def _swap_rows(m: list[list[int]], i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]


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
                _swap_rows(D, t, pi)
                _swap_rows(U, t, pi)
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


def rank(A: IntMatrix) -> int:
    return smith_normal_form(A).rank()


def determinant(A: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if A.rows != A.cols:
        raise ValueError("determinant of a non-square matrix")
    n = A.rows
    if n == 0:
        return 1
    M = A.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if pivot_row is None:
                return 0
            M[k], M[pivot_row] = M[pivot_row], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def rational_rank(A: IntMatrix) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination, without transforms.

    Each entry left after a step is a minor of A, so the division by the
    previous pivot is exact and coefficients grow no faster than A's minors.
    """
    M = A.to_rows()
    r, prev = 0, 1
    for col in range(A.cols):
        pivot_row = next((i for i in range(r, A.rows) if M[i][col] != 0), None)
        if pivot_row is None:
            continue
        _swap_rows(M, r, pivot_row)
        p, top = M[r][col], M[r][col + 1 :]
        for i in range(r + 1, A.rows):
            a = M[i][col]
            M[i][col + 1 :] = [(x * p - a * y) // prev for x, y in zip(M[i][col + 1 :], top)]
        prev = p
        r += 1
    return r


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
    """
    H = A.to_rows()
    nrows, ncols = A.rows, A.cols
    r = 0
    for col in range(ncols):
        # Combine rows r.. so only row r has a nonzero in this column.
        pivot_row = next((i for i in range(r, nrows) if H[i][col] != 0), None)
        if pivot_row is None:
            continue
        _swap_rows(H, r, pivot_row)
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


def column_hnf(B: IntMatrix) -> IntMatrix:
    """Canonical basis (as columns) of the column lattice of B."""
    return hermite_normal_form_rows(B.transpose()).transpose()


def same_column_lattice(A: IntMatrix, B: IntMatrix) -> bool:
    if A.rows != B.rows:
        return False
    return column_hnf(A) == column_hnf(B)


def kernel_basis(A: IntMatrix) -> IntMatrix:
    return smith_normal_form(A).kernel_basis()


def cokernel(A: IntMatrix) -> CokernelStructure:
    return smith_normal_form(A).cokernel()


def solve_columns(B: IntMatrix, C: IntMatrix) -> IntMatrix | None:
    return smith_normal_form(B).solve(C)


def in_column_lattice(B: IntMatrix, v: Sequence[int]) -> bool:
    return solve_columns(B, IntMatrix.column(v)) is not None


def restrict_endomorphism(T: IntMatrix, B: IntMatrix) -> IntMatrix:
    """Matrix S with T @ B = B @ S, i.e. T written in the columns of B.

    Raises NotInvariant when T does not carry the column lattice of B into
    itself.
    """
    if T.rows != T.cols:
        raise ValueError("endomorphism matrix must be square")
    if T.cols != B.rows:
        raise ValueError("shape mismatch between T and B")
    S = solve_columns(B, T @ B)
    if S is None:
        raise NotInvariant("image of the lattice is not contained in the lattice")
    return S


def saturate_columns(A: IntMatrix) -> IntMatrix:
    """Canonical basis of Z^rows intersected with the Q-span of A's columns."""
    left_kernel = kernel_basis(A.transpose())  # columns annihilate A from the left
    return kernel_basis(left_kernel.transpose())
