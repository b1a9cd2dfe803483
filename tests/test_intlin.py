import ast
import copy
import math
import pathlib
import pickle
import random

import pytest

import solk.intlin
from solk.intlin import (
    CokernelStructure,
    IntMatrix,
    NotInvariant,
    adjugate,
    cokernel,
    column_hnf,
    determinant,
    echelon_span,
    hermite_normal_form_rows,
    in_column_lattice,
    invert_unimodular,
    kernel_basis,
    rank,
    restrict_endomorphism,
    same_column_lattice,
    saturate_columns,
    smith_normal_form,
    solve_columns,
    xgcd,
)
from solk.ktheory import ktheory_report
from solk.model import parse_presentation

from helpers import count_calls, random_int_matrix, random_unimodular, record_calls, wedge_text
from oracles import (
    exact_elimination_oracle,
    saturate_columns_oracle,
    saturate_echelon_kernel_oracle,
)

DELTA0 = IntMatrix.from_rows([[-1, 1, 0], [1, -1, 0]])


def test_matrix_basics():
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert m.shape == (2, 2)
    assert m[1, 0] == 3
    assert m.row(0) == (1, 2)
    assert m.col(1) == (2, 4)
    assert m.transpose().to_rows() == [[1, 3], [2, 4]]
    assert (m @ IntMatrix.identity(2)) == m
    assert m.power(2).to_rows() == [[7, 10], [15, 22]]
    with pytest.raises(ValueError):
        IntMatrix(2, 2, [1, 2, 3])
    with pytest.raises(AttributeError):
        m.rows = 5
    wide = IntMatrix.zeros(2, 3)
    for call, error, message in [
        (lambda: IntMatrix(-1, 0, []), ValueError, "dimensions must be nonnegative"),
        (lambda: IntMatrix(2.0, 1, [1, 2]), TypeError, None),
        (lambda: IntMatrix(1, 2.0, [1, 2]), TypeError, None),
        (lambda: IntMatrix.from_rows([[1, 2], [3]]), ValueError, "ragged rows"),
        (lambda: IntMatrix.from_rows([[1, 2]], cols=5), ValueError, "width 2 given for 5 columns"),
        (lambda: IntMatrix.identity(-1), ValueError, "dimensions must be nonnegative"),
        # Each index below reads an entry of the row-major tuple when it is not checked.
        (lambda: m[0, 2], IndexError, None),
        (lambda: m.col(2), IndexError, None),
        (lambda: m.row(5), IndexError, "5"),
        (lambda: m.row(-1), IndexError, "-1"),
        (lambda: m.submatrix([0], [2]), IndexError, "submatrix index out of range"),
        (lambda: wide @ m, ValueError, r"shape mismatch: \(2, 3\) @ \(2, 2\)"),
        (lambda: m.mul_vector([1, 2, 3]), ValueError, "vector length mismatch"),
        (lambda: m.mul_vector([1.5, 2]), TypeError, None),
        (lambda: wide.power(2), ValueError, "power of a non-square matrix"),
        (lambda: m.power(-1), ValueError, "negative power"),
    ]:
        with pytest.raises(error, match=message):
            call()


def test_xgcd():
    for a, b in [(12, 18), (-4, 6), (0, 0), (0, -7), (5, 0), (270, 192)]:
        g, x, y = xgcd(a, b)
        assert g == x * a + y * b
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_snf_identity():
    snf = smith_normal_form(IntMatrix.identity(2))
    assert snf.D == IntMatrix.identity(2)
    assert snf.U == IntMatrix.identity(2)
    assert snf.V == IntMatrix.identity(2)


def test_snf_1x1():
    snf = smith_normal_form(IntMatrix.from_rows([[2]]))
    assert snf.D.to_rows() == [[2]]


def test_snf_boundary_example():
    snf = smith_normal_form(DELTA0)
    assert snf.U @ DELTA0 @ snf.V == snf.D
    assert snf.D.to_rows() == [[1, 0, 0], [0, 0, 0]]
    assert abs(determinant(snf.U)) == 1
    assert abs(determinant(snf.V)) == 1


def test_snf_empty_and_zero():
    snf = smith_normal_form(IntMatrix.zeros(2, 3))
    assert snf.D == IntMatrix.zeros(2, 3)
    snf = smith_normal_form(IntMatrix(0, 3, ()))
    assert snf.D.shape == (0, 3)
    assert snf.V == IntMatrix.identity(3)


def test_kernel_identity_is_empty():
    b = kernel_basis(IntMatrix.identity(2))
    assert b.shape == (2, 0)


def test_kernel_of_zero_matrix_is_identity():
    assert kernel_basis(IntMatrix.zeros(2, 3)) == IntMatrix.identity(3)


def test_kernel_boundary_example_lattice():
    b = kernel_basis(DELTA0)
    assert DELTA0 @ b == IntMatrix.zeros(DELTA0.rows, b.cols)
    wanted = IntMatrix.from_rows([[1, 0], [1, 0], [0, 1]])
    assert same_column_lattice(b, wanted)


def test_cokernel_examples():
    assert cokernel(DELTA0) == CokernelStructure(free_rank=1, torsion=())
    assert cokernel(IntMatrix.identity(3)) == CokernelStructure(free_rank=0, torsion=())
    # diag(2,3): row-reduce by hand to diag(1,6).
    assert cokernel(IntMatrix.from_rows([[2, 0], [0, 3]])) == CokernelStructure(
        free_rank=0, torsion=(6,)
    )
    assert smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]])).diagonal() == (1, 6)


def test_restrict_identity():
    b = IntMatrix.from_rows([[1, 0], [1, 0], [0, 1]])
    assert restrict_endomorphism(IntMatrix.identity(3), b) == IntMatrix.identity(2)


def test_restrict_pullback_examples():
    basis = IntMatrix.from_rows([[1, 0], [1, 0], [0, 1]])
    t = IntMatrix.from_rows([[1, 1, 1], [1, 1, 1], [1, 0, 1]])
    assert restrict_endomorphism(t, basis).to_rows() == [[2, 1], [1, 1]]
    # A different matrix with the same action on this lattice.
    t2 = IntMatrix.from_rows([[0, 1, 1], [1, 0, 1], [0, 1, 0]])
    assert restrict_endomorphism(t2, basis).to_rows() == [[1, 1], [1, 0]]


def test_restrict_not_invariant():
    b = IntMatrix.from_rows([[1], [0]])
    t = IntMatrix.from_rows([[0, 1], [1, 0]])
    with pytest.raises(NotInvariant):
        restrict_endomorphism(t, b)


def test_restrict_needs_an_echelon_basis():
    # The same lattice as test_restrict_pullback_examples, with its columns swapped.
    b = IntMatrix.from_rows([[0, 1], [0, 1], [1, 0]])
    t = IntMatrix.from_rows([[1, 1, 1], [1, 1, 1], [1, 0, 1]])
    with pytest.raises(ValueError, match="echelon"):
        restrict_endomorphism(t, b)


def test_restrict_checks_shapes():
    b = IntMatrix.from_rows([[1, 0], [1, 0], [0, 1]])
    with pytest.raises(ValueError, match="endomorphism matrix must be square"):
        restrict_endomorphism(IntMatrix.zeros(2, 3), b)
    with pytest.raises(ValueError, match="shape mismatch between T and B"):
        restrict_endomorphism(IntMatrix.identity(2), b)


def test_column_hnf_canonicalizes(monkeypatch):
    b1 = IntMatrix.from_rows([[1, 0], [1, 0], [0, 1]])
    b2 = IntMatrix.from_rows([[1, 1], [1, 1], [0, 1]])  # same lattice, mixed basis
    assert column_hnf(b1) == column_hnf(b2)
    b3 = IntMatrix.from_rows([[2, 0], [2, 0], [0, 1]])  # index-2 sublattice
    assert column_hnf(b1) != column_hnf(b3)
    # Lattices in different ambient ranks differ before any normal form is taken.
    calls = count_calls(monkeypatch, solk.intlin, "column_hnf")
    assert not same_column_lattice(b1, IntMatrix.identity(2))
    assert calls == {"column_hnf": 0}


def test_hermite_rows_shape_and_pivots():
    h = hermite_normal_form_rows(IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]))
    rows = h.to_rows()
    pivots = []
    for row in rows:
        j = next(i for i, x in enumerate(row) if x != 0)
        assert row[j] > 0
        pivots.append(j)
    assert pivots == sorted(pivots)


def test_solve_columns():
    b = IntMatrix.from_rows([[2, 0], [0, 3]])
    c = IntMatrix.from_rows([[4], [9]])
    x = solve_columns(b, c)
    assert x is not None and (b @ x) == c
    assert solve_columns(b, IntMatrix.from_rows([[1], [0]])) is None
    assert in_column_lattice(b, [4, 9]) and not in_column_lattice(b, [1, 0])


def test_invert_unimodular():
    m = IntMatrix.from_rows([[2, 1], [1, 1]])
    inv = invert_unimodular(m)
    assert m @ inv == IntMatrix.identity(2)
    with pytest.raises(ValueError):
        invert_unimodular(IntMatrix.from_rows([[2, 0], [0, 1]]))
    with pytest.raises(ValueError, match="inverse of a non-square matrix"):
        invert_unimodular(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]))


def test_saturate_columns():
    # Columns span an index-2 sublattice of a rank-1 saturated lattice.
    a = IntMatrix.from_rows([[2], [2]])
    assert saturate_columns(a).to_rows() == [[1], [1]]
    assert saturate_columns(IntMatrix.zeros(2, 2)).shape == (2, 0)
    assert saturate_columns(IntMatrix.identity(3)) == IntMatrix.identity(3)


def echelon_basis(rng: random.Random, rows: int, pivots: list[int]) -> IntMatrix:
    """A primitive reduced echelon basis with the given pivots: below its pivot
    a column has random entries in the rows that are no pivot row, up to the
    pivot in size, and a 1 in the last row, which keeps its content 1."""
    pivot_rows = sorted(rng.sample(range(rows - 1), len(pivots)))
    columns = []
    for r, q in zip(pivot_rows, pivots):
        column = [0] * (rows - 1) + [1]
        column[r] = q
        for i in range(r + 1, rows - 1):
            if i not in pivot_rows:
                column[i] = rng.randint(-q, q)
        columns.append(column)
    return IntMatrix.from_rows([list(row) for row in zip(*columns)], cols=len(pivots))


SATURATION_PIVOTS = {
    "all-unit": lambda rng, d: [1] * d,
    "mixed": lambda rng, d: [rng.choice([1, 1, 2, 3, 4, 6, 9]) for _ in range(d)],
    "all-non-unit": lambda rng, d: [rng.choice([2, 3, 4, 5, 6, 8, 12]) for _ in range(d)],
    # lcm(2^61 - 1, 2^31 - 1, ...) has more than 64 bits.
    "L-over-64-bits": lambda rng, d: [2**61 - 1, 2**31 - 1] + [rng.choice([1, 6])] * (d - 2),
    "no-columns": lambda rng, d: [],
    "one-column": lambda rng, d: [rng.choice([1, 2, 9, 2**70])],
}


@pytest.mark.parametrize("case", SATURATION_PIVOTS)
def test_saturation_matches_oracle_on_echelon_bases(case):
    rng = random.Random(32)
    for _ in range(25):
        d = rng.randint(2, 5)
        pivots = SATURATION_PIVOTS[case](rng, d)
        E = echelon_basis(rng, len(pivots) + rng.randint(1, 4), pivots)
        assert echelon_span(E) == E
        got = saturate_columns(E)
        assert got == saturate_columns_oracle(E)
        # A zero column spans nothing more.
        zero = IntMatrix.from_rows([list(row) + [0] for row in E.to_rows()], cols=E.cols + 1)
        assert saturate_columns(zero) == got
    if case == "L-over-64-bits":
        assert math.lcm(*pivots).bit_length() > 64


def test_saturation_matches_the_congruence_kernel_on_wedges(monkeypatch):
    # Every eventual lattice the wedge reports saturate, against the
    # kernel_basis construction the congruence sweep replaced.
    seen = record_calls(monkeypatch, solk.intlin, "_saturate_echelon")
    for k in range(4, 13):
        ktheory_report(parse_presentation(wedge_text(k)))
    monkeypatch.undo()
    non_unit = 0
    for E in seen:
        assert saturate_columns(E) == saturate_echelon_kernel_oracle(E)
        non_unit += any(next(filter(None, E.col(j))) > 1 for j in range(E.cols))
    assert non_unit >= 5


def test_snf_properties_random():
    rng = random.Random(20240817)
    for _ in range(120):
        a = random_int_matrix(rng)
        snf = smith_normal_form(a)
        assert snf.U @ a @ snf.V == snf.D
        assert abs(determinant(snf.U)) == 1
        assert abs(determinant(snf.V)) == 1
        diag = snf.diagonal()
        assert all(d >= 0 for d in diag)
        nonzero = [d for d in diag if d != 0]
        assert list(diag[: len(nonzero)]) == nonzero, "trailing zeros must come last"
        for d1, d2 in zip(nonzero, nonzero[1:]):
            assert d2 % d1 == 0
        # Off-diagonal entries vanish.
        for i in range(snf.D.rows):
            for j in range(snf.D.cols):
                if i != j:
                    assert snf.D[i, j] == 0


def test_rank_nullity_and_saturation_random():
    rng = random.Random(987)
    for _ in range(80):
        a = random_int_matrix(rng)
        b = kernel_basis(a)
        assert rank(a) + b.cols == a.cols
        assert a @ b == IntMatrix.zeros(a.rows, b.cols)
        if b.cols:
            assert set(smith_normal_form(b).diagonal()) == {1}, "kernel must be saturated"


def test_restrict_round_trip_random():
    rng = random.Random(5151)
    for _ in range(60):
        n = rng.randint(1, 4)
        t = IntMatrix(n, n, [rng.randint(-3, 3) for _ in range(n * n)])
        b = kernel_basis(random_int_matrix(rng, max_dim=n))
        # Use an invariant lattice: the saturation of span(t^n).
        lattice = saturate_columns(t.power(n))
        if lattice.cols == 0:
            continue
        s = restrict_endomorphism(t, lattice)
        assert t @ lattice == lattice @ s


def test_determinant_matches_expansion():
    rng = random.Random(33)
    def perm_det(m):
        import itertools
        n = m.rows
        total = 0
        for perm in itertools.permutations(range(n)):
            sign = 1
            seen = [False] * n
            for i in range(n):
                if seen[i]:
                    continue
                j, length = i, 0
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    length += 1
                if length % 2 == 0:
                    sign = -sign
            term = 1
            for i in range(n):
                term *= m[i, perm[i]]
            total += sign * term
        return total

    for _ in range(40):
        n = rng.randint(0, 4)
        m = IntMatrix(n, n, [rng.randint(-4, 4) for _ in range(n * n)])
        assert determinant(m) == perm_det(m)


def test_unimodular_generator_is_unimodular():
    rng = random.Random(6)
    for _ in range(20):
        u = random_unimodular(rng, rng.randint(1, 4))
        assert abs(determinant(u)) == 1


def test_snf_invariant_factors_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as reference_snf

    rng = random.Random(112358)
    for _ in range(120):
        a = random_int_matrix(rng)
        if a.rows == 0 or a.cols == 0:
            continue
        mine = list(smith_normal_form(a).diagonal())
        ref = reference_snf(sympy.Matrix(a.to_rows()))
        theirs = [abs(ref[j, j]) for j in range(min(ref.rows, ref.cols))]
        assert mine == theirs


def test_adjugate_times_matrix_is_determinant_times_identity():
    rng = random.Random(83)
    singular = 0
    for _ in range(300):
        n = rng.randint(0, 6)
        a = IntMatrix(n, n, [rng.randint(-5, 5) for _ in range(n * n)])
        det = determinant(a)
        if det == 0:
            singular += 1
            with pytest.raises(ValueError, match="nonsingular"):
                adjugate(a)
            continue
        adj, d = adjugate(a)
        assert d == det
        scaled = IntMatrix(n, n, [det * x for x in IntMatrix.identity(n)._entries])
        assert adj @ a == a @ adj == scaled
    assert singular > 0
    swap = IntMatrix.from_rows([[0, 1], [1, 0]])  # a row exchange flips the sign
    assert adjugate(swap) == (IntMatrix.from_rows([[0, -1], [-1, 0]]), -1)
    with pytest.raises(ValueError, match="non-square"):
        adjugate(IntMatrix.zeros(2, 3))


def test_int_matrix_survives_copy_pickle_and_deepcopy():
    big = IntMatrix.from_rows([[1, -2], [3, 2**80]])
    for m in (big, IntMatrix.zeros(0, 3), IntMatrix.zeros(2, 0)):
        for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert type(twin) is IntMatrix and twin == m and twin.shape == m.shape
            assert hash(twin) == hash(m)
            with pytest.raises(AttributeError, match="immutable"):
                twin.rows = 5


@pytest.mark.parametrize("entry", [2.7, 2.0, "7"])
def test_int_matrix_rejects_non_integral_entries(entry):
    # A float or a string is refused, not truncated; a bool still reads as an int.
    with pytest.raises(TypeError):
        IntMatrix(1, 2, [1, entry])
    with pytest.raises(TypeError):
        IntMatrix.from_rows([[entry]])
    m = IntMatrix(1, 2, [True, False])
    assert m.row(0) == (1, 0) and all(type(x) is int for x in m.row(0))


def M(rows):
    return IntMatrix.from_rows(rows)


# Shapes with no entries, then matrices that take each branch of the
# fraction-free elimination: a row left alone, a row rescaled, a row exchange.
ELIMINATION_CASES = [
    IntMatrix.zeros(0, 0), IntMatrix.zeros(3, 0), IntMatrix.zeros(0, 3), IntMatrix.zeros(2, 2),
    M([[1, 0, 0], [0, 1, 0], [1, 1, 1]]),  # multiplier 0 under a repeated pivot 1
    M([[2, 1, 0], [0, 1, 1], [1, 0, 1]]),  # multiplier 0 under pivot 2 after 1: a rescaled row
    M([[3, 1, 0, 2], [0, 2, 1, 0], [0, 0, 5, 1], [1, 0, 0, 4]]),  # three rescaled rows
    M([[0, 1], [1, 0]]),  # a row exchange flips the sign
    M([[0, 0, 1], [0, 2, 0], [3, 0, 0]]),  # exchanges and changing pivots
    M([[1, 2, 3], [2, 4, 6]]), M([[0, 0], [0, 0], [1, 1]]), M([[2, 0], [0, 0]]),  # rank-deficient
]


def elimination_stream(seed: int):
    """ELIMINATION_CASES, then seeded matrices of every shape up to 9 x 9:
    sparse ones (mostly zero multipliers), unit-entry ones (mostly repeated
    pivots) and rank-deficient products."""
    rng = random.Random(seed)
    yield from ELIMINATION_CASES
    for _ in range(300):
        r, c = rng.randint(0, 9), rng.randint(0, 9)
        if rng.random() < 0.5:
            r = c  # square ones have a determinant and maybe an adjugate
        kind = rng.randrange(3)
        if kind == 2 and r and c:
            k = rng.randint(0, min(r, c) - 1)
            B = IntMatrix(r, k, [rng.randint(-3, 3) for _ in range(r * k)])
            yield B @ IntMatrix(k, c, [rng.randint(-3, 3) for _ in range(k * c)])
            continue
        values = (0, 0, 0, 1, -1, 2, -3) if kind == 0 else (0, 1, -1)
        yield IntMatrix(r, c, [rng.choice(values) for _ in range(r * c)])


def test_rank_determinant_and_adjugate_match_exact_oracle():
    adjugates = 0
    for A in elimination_stream(seed=2024):
        want_rank, want_det, want_adj = exact_elimination_oracle(A)
        assert rank(A) == want_rank, A
        if A.rows != A.cols:
            with pytest.raises(ValueError, match="non-square"):
                determinant(A)
            continue
        assert determinant(A) == want_det, A
        if want_adj is None:
            with pytest.raises(ValueError, match="nonsingular"):
                adjugate(A)
        else:
            assert adjugate(A) == (want_adj, want_det), A
            adjugates += 1
    assert adjugates >= 60


def test_no_module_but_intlin_reads_the_matrix_layout():
    # Entries, the unchecked constructor and intlin's private helpers stay in intlin.
    offenders = []
    for path in sorted(pathlib.Path(solk.intlin.__file__).parent.glob("*.py")):
        if path.name == "intlin.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "intlin" and node.level == 1:
                offenders += [(path.name, a.name) for a in node.names if a.name.startswith("_")]
            elif isinstance(node, ast.Attribute) and node.attr in ("_entries", "_of"):
                offenders.append((path.name, node.attr))
    assert offenders == []
