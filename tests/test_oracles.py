"""The linear-time closure, Boolean validation, one-factorization linear algebra,
stabilization-index limits, reducing Hermite kernel, column-slice product,
echelon-span limits, one-path saturation, echelon solve, spanning-forest K0,
component-sum well-definedness, adjugate retraction and K1 and psi1 from the
class-graph components against their straightforward oracles."""

import importlib.util
import itertools
import pathlib
import random
import sys
from math import gcd

import pytest

import solk.intlin
import solk.ktheory
from solk.germs import occurring_classes, quotient_summary
from solk.intlin import (
    adjugate,
    IntMatrix,
    cokernel,
    column_hnf,
    determinant,
    echelon_span,
    hermite_normal_form_rows,
    invert_unimodular,
    kernel_basis,
    rank,
    saturate_columns,
    smith_normal_form,
    solve_columns,
    solve_echelon,
)
from solk.ktheory import (
    NotWellDefined,
    _class_forest,
    boundary_matrix,
    first_edge_matrix,
    psi_star_k0,
    psi_star_k1,
    trace_pullback_matrix,
    with_class_order,
)
from solk.limits import (
    LimitElement,
    StationaryLimitGroup,
    element_add,
    element_equal,
    element_negate,
)
from solk.model import (
    _is_primitive, abelianization, parse_presentation, substitution_power, validate,
)
from solk.sft import (
    SftPresentation, edge_shift, sft_dimension_group, validate_sft,
)

from helpers import (
    THREE_COMPONENTS_TEXT,
    aabab,
    closure_stress_text,
    count_calls,
    cyclic_text,
    fibonacci,
    long_tail_text,
    n_solenoid,
    one_edge_chain_text,
    random_int_matrix,
    random_presentation,
    random_unimodular,
    random_valid_presentations,
    wedge_text,
)
from oracles import (
    StationaryLimitGroupOracle,
    StationaryLimitGroupPowerOracle,
    canonical_oracle,
    element_equal_oracle,
    class_forest_oracle,
    cokernel_oracle,
    echelon_span_oracle,
    edge_shift_oracle,
    hermite_normal_form_rows_oracle,
    is_primitive_oracle,
    kernel_basis_oracle,
    matmul_oracle,
    occurring_classes_oracle,
    psi0_dense_oracle,
    psi1_oracle,
    saturate_columns_oracle,
    solve_columns_oracle,
    strongly_connected_oracle,
    trace_pullback_matrix_oracle,
    validate_oracle,
)
from test_germs import corpus

IMPRIMITIVE_TEXT = "solenoid v1\nvertex p\nedge a p p\nedge b p p\nmap a -> b b\nmap b -> a a\n"


def family_corpus():
    out = []
    for n in range(9, 16):
        out += [parse_presentation(closure_stress_text(n, random.Random(f"stress{n}:{j}"))) for j in range(2)]
    for n in range(6, 15):
        out += [parse_presentation(cyclic_text(n, random.Random(f"cyclic{n}:{j}"))) for j in range(2)]
    return out


def chain_families():
    """Long chains of the induced germ map and of one-edge images, n = 2, 5, 12, 30."""
    texts = (long_tail_text, one_edge_chain_text)
    return [parse_presentation(text(n)) for text in texts for n in (2, 5, 12, 30)]


def presentations():
    return corpus() + [parse_presentation(IMPRIMITIVE_TEXT)] + family_corpus()


def random_presentations(seed: int, count: int):
    """Unvalidated random presentations: valid, invalid and imprimitive ones."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = random_presentation(rng)
        if p is not None:
            out.append(p)
    return out


def test_closure_matches_quadratic_oracle():
    wedges = [parse_presentation(wedge_text(k)) for k in range(2, 19)]
    for p in presentations() + random_valid_presentations(7, 300) + wedges + chain_families():
        closure, oracle = occurring_classes(p), occurring_classes_oracle(p)
        # with_class_order relies on the closure emitting its classes sorted.
        assert list(closure.classes) == sorted(closure.classes)
        paper = with_class_order(closure, "paper").classes
        assert paper == tuple(sorted(closure.classes, reverse=True))
        for order in ("lex", "paper"):
            got, want = with_class_order(closure, order), with_class_order(oracle, order)
            assert got.classes == want.classes
            assert got.edge_points == want.edge_points
            assert got.gtilde == want.gtilde
            assert got.interior_preimage_table == want.interior_preimage_table
            assert got.preimage_counts == want.preimage_counts
            assert got.arcs == want.arcs


def test_validate_matches_integer_power_oracle():
    for p in presentations() + random_presentations(7, 300) + chain_families():
        assert validate(p).findings == validate_oracle(p).findings


def test_summary_degree_is_the_preimage_count():
    for p in presentations():
        s = quotient_summary(p)
        if s.degree is not None:
            assert all(n == s.degree for n in s.model.preimage_counts)


def M(rows):
    return IntMatrix.from_rows(rows)


def primitive(A: IntMatrix) -> bool:
    return _is_primitive([sum(1 << j for j, x in enumerate(A.row(i)) if x) for i in range(A.rows)])


def wielandt_matrix(n: int) -> IntMatrix:
    """The cycle 0 -> 1 -> ... -> n-1 -> 0 plus the chord n-1 -> 1."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] = 1
    rows[n - 1][1] = 1
    return M(rows)


@pytest.mark.parametrize("n", range(2, 9))
def test_wielandt_matrix_exponent_is_the_bound(n):
    W = wielandt_matrix(n)
    bound = (n - 1) ** 2 + 1

    def positive(A):
        return all(x > 0 for row in A.to_rows() for x in row)

    assert not positive(W.power(bound - 1))
    assert positive(W.power(bound))
    assert primitive(W)


def test_imprimitive_and_reducible_matrices():
    cyclic_blocks = M([[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]])
    reducible = M([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    for A in (cyclic_blocks, reducible, M([[0]]), M([[0, 1], [1, 0]])):
        assert not primitive(A)
    assert primitive(M([[1]])) and primitive(M([]))


def test_primitive_matches_oracle_on_all_small_patterns():
    for n in (1, 2, 3):
        for bits in itertools.product((0, 1), repeat=n * n):
            A = IntMatrix(n, n, bits)
            assert primitive(A) == is_primitive_oracle(A)
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(4, 7)
        A = IntMatrix(n, n, [rng.choice((0, 0, 0, 1, 2)) for _ in range(n * n)])
        assert primitive(A) == is_primitive_oracle(A)


def int_matrix_stream(seed: int, count: int):
    """Every empty shape up to 3x3, then seeded random matrices with entries in [-6, 6]."""
    rng = random.Random(seed)
    yield from (IntMatrix.zeros(r, c) for r in range(4) for c in range(4) if r * c == 0)
    for _ in range(count):
        yield random_int_matrix(rng, lo=-6, hi=6)


def plus(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    """A + B, entry by entry, for matrices of one shape."""
    rows = zip(A.to_rows(), B.to_rows())
    return IntMatrix(A.rows, A.cols, [a + b for r, s in rows for a, b in zip(r, s)])


def test_decomposition_matches_linear_algebra_oracles():
    rng = random.Random(3)
    outcomes = set()
    for A in int_matrix_stream(seed=2, count=400):
        snf = smith_normal_form(A)
        assert snf.A == A
        assert kernel_basis(A) == kernel_basis_oracle(A)
        assert cokernel(A) == snf.cokernel() == cokernel_oracle(A)
        assert rank(A) == snf.rank() == A.cols - kernel_basis_oracle(A).cols
        k = rng.randint(0, 3)
        X = IntMatrix(A.cols, k, [rng.randint(-3, 3) for _ in range(A.cols * k)])
        noise = IntMatrix(A.rows, k, [rng.randint(-2, 2) for _ in range(A.rows * k)])
        for C in (A @ X, plus(A @ X, noise)):
            got = solve_columns(A, C)
            assert got == snf.solve(C) == solve_columns_oracle(A, C)
            outcomes.add(got is None)
        wrong = IntMatrix.zeros(A.rows + 1, 1)
        for solve in (solve_columns, solve_columns_oracle):
            with pytest.raises(ValueError, match="row count"):
                solve(A, wrong)
    assert outcomes == {True, False}  # solvable and unsolvable right-hand sides both ran


def random_square(rng: random.Random, n: int, kind: str) -> IntMatrix:
    """A seeded n x n matrix of one kind, with entries of either sign."""
    if kind == "zero" or n == 0:
        return IntMatrix.zeros(n, n)
    if kind == "nonsingular":
        while True:
            A = IntMatrix(n, n, [rng.randint(-4, 4) for _ in range(n * n)])
            if determinant(A) != 0:
                return A
    if kind == "rank-deficient":
        k = rng.randint(0, n - 1)
        B = IntMatrix(n, k, [rng.randint(-3, 3) for _ in range(n * k)])
        return B @ IntMatrix(k, n, [rng.randint(-3, 3) for _ in range(k * n)])
    # Nilpotent Jordan blocks, then (for "jordan") a nonsingular diagonal
    # part, conjugated by a unimodular change of basis.
    m = n if kind == "nilpotent" else rng.randint(0, n)
    rows = [[0] * n for _ in range(n)]
    i = 0
    while i < m:
        size = rng.randint(1, m - i)
        for j in range(i, i + size - 1):
            rows[j][j + 1] = 1
        i += size
    for j in range(m, n):
        rows[j][j] = rng.choice((-3, -2, -1, 1, 2, 3))
    U = random_unimodular(rng, n)
    return invert_unimodular(U) @ IntMatrix.from_rows(rows, cols=n) @ U


def irreducible_edge_shift(rng: random.Random, n: int) -> IntMatrix:
    """Transfer matrix of the edge shift of a seeded irreducible n-state matrix."""
    rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] = 1  # a Hamiltonian cycle makes the graph irreducible
    return edge_shift(SftPresentation.from_matrix(rows)).adjacency.transpose()


def endomorphism_stream(seed: int):
    rng = random.Random(seed)
    for n in range(9):
        for kind in ("zero", "nonsingular", "rank-deficient", "nilpotent", "jordan"):
            for _ in range(2 if kind == "zero" else 4):
                yield random_square(rng, n, kind)
    for n in range(2, 6):
        for _ in range(3):
            yield irreducible_edge_shift(rng, n)


def test_limit_at_stabilization_index_matches_full_power_oracle():
    rng = random.Random(17)
    indices = set()
    for T in endomorphism_stream(seed=16):
        new, old = StationaryLimitGroup(T), StationaryLimitGroupOracle(T)
        assert new.eventual_basis == old.eventual_basis
        assert new.reduced_endomorphism == old.reduced_endomorphism
        assert new.classify() == old.classify()
        assert new.stabilization_index <= T.rows
        indices.add(new.stabilization_index)
        for _ in range(4):
            stage = rng.randint(0, 3)
            v = [rng.randint(-4, 4) for _ in range(T.rows)]
            a, b = new.from_ambient(stage, v), old.from_ambient(stage, v)
            assert (a.stage, a.vector) == (b.stage, b.vector)
    assert {0, 1, 2, 3} <= indices  # nonsingular, one-step and longer nilpotent tails all ran


def test_limit_multiplies_t_only_when_a_first_pivot_is_not_1(monkeypatch):
    # The span iteration runs on T restricted to im T, in the pivot rows of
    # its echelon basis E1.  When every pivot of E1 is 1 the limit never
    # multiplies by T itself; otherwise it returns to Z^r once, for T @ E.
    matmul, products, cases = IntMatrix.__matmul__, [], set()
    for T in endomorphism_stream(seed=43):
        products.clear()
        monkeypatch.setattr(
            IntMatrix, "__matmul__", lambda a, b: products.append(a == T) or matmul(a, b)
        )
        g = StationaryLimitGroup(T)
        monkeypatch.undo()
        first = echelon_span(T)
        unit = all(next(x for x in first.col(j) if x) == 1 for j in range(first.cols))
        k = g.stabilization_index
        assert sum(products) == (0 if k == 0 or unit else 1)
        if k:
            cases.add((first.cols > 0, unit, min(k, 2)))
    # Both finishes after one step and after several, and an empty first span.
    assert cases == {
        (True, True, 1), (True, True, 2), (True, False, 1), (True, False, 2), (False, True, 1)
    }


def test_bareiss_rank_matches_smith_rank(monkeypatch):
    matrices = [*int_matrix_stream(seed=5, count=400), *endomorphism_stream(seed=16)]
    want = [smith_normal_form(A).rank() for A in matrices]
    factored = count_calls(monkeypatch, solk.intlin, "smith_normal_form")
    assert [rank(A) for A in matrices] == want
    assert factored == {"smith_normal_form": 0}


def normal_form_stream(seed: int, count: int):
    """Every empty shape up to 3x3, then seeded draws of four kinds in turn:
    entries in [-6, 6], the same with some columns zeroed, rank-deficient
    products, and mostly-zero matrices."""
    rng = random.Random(seed)
    yield from (IntMatrix.zeros(r, c) for r in range(4) for c in range(4) if r * c == 0)
    for i in range(count):
        A = random_int_matrix(rng, max_dim=7, lo=-6, hi=6)
        m, n = A.shape
        if i % 4 == 1 and n:
            zero = set(rng.sample(range(n), rng.randint(1, n)))
            A = IntMatrix(m, n, [0 if t % n in zero else x for t, x in enumerate(A._entries)])
        elif i % 4 == 2:
            k = rng.randint(0, max(min(m, n) - 1, 0))
            B = IntMatrix(m, k, [rng.randint(-4, 4) for _ in range(m * k)])
            A = matmul_oracle(B, IntMatrix(k, n, [rng.randint(-4, 4) for _ in range(k * n)]))
        elif i % 4 == 3:
            A = IntMatrix(m, n, [rng.choice((0, 0, 0, 0, 1, -1, 3)) for _ in range(m * n)])
        yield A


def test_reducing_hermite_form_matches_unreduced_oracle():
    deficient = 0
    for A in normal_form_stream(seed=23, count=480):
        H = hermite_normal_form_rows(A)
        want = hermite_normal_form_rows_oracle(A)
        assert (H.shape, H._entries) == (want.shape, want._entries)
        assert all(type(x) is int for x in H._entries)
        deficient += H.rows < min(A.shape)
    assert deficient >= 100  # rank-deficient inputs are well represented


def test_column_slice_product_matches_oracle():
    rng = random.Random(29)
    branches = set()
    for A in normal_form_stream(seed=31, count=480):
        branches.update(2 * sum(map(bool, A.row(i))) < A.cols for i in range(A.rows))
        k = rng.randint(0, 6)
        for entries in ((-6, 6), (0, 0, 0, 1, -2)):
            if len(entries) == 2:
                B = IntMatrix(A.cols, k, [rng.randint(*entries) for _ in range(A.cols * k)])
            else:
                B = IntMatrix(A.cols, k, [rng.choice(entries) for _ in range(A.cols * k)])
            got, want = A @ B, matmul_oracle(A, B)
            assert (got.shape, got._entries) == (want.shape, want._entries)
        v = [rng.randint(-6, 6) for _ in range(A.cols)]
        assert A.mul_vector(v) == matmul_oracle(A, IntMatrix.column(v))._entries
        assert A.transpose()._entries == tuple(A[i, j] for j in range(A.cols) for i in range(A.rows))
        assert all(A.col(j) == tuple(A[i, j] for i in range(A.rows)) for j in range(A.cols))
    assert branches == {True, False}  # sparse and dense rows both ran


def test_hermite_form_spans_the_sympy_lattice():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form as reference_hnf

    checked = 0
    for A in normal_form_stream(seed=37, count=200):
        if A.rows == 0 or A.cols == 0:
            continue
        # sympy reduces by column operations, so its result spans A's column lattice.
        ref = reference_hnf(sympy.Matrix(A.to_rows()))
        theirs = IntMatrix(ref.rows, ref.cols, [int(x) for x in ref])
        assert column_hnf(theirs) == column_hnf(A)
        checked += 1
    assert checked >= 150


def test_limit_from_echelon_spans_matches_power_oracle():
    rng = random.Random(41)
    indices = set()
    for T in endomorphism_stream(seed=43):
        new, old = StationaryLimitGroup(T), StationaryLimitGroupPowerOracle(T)
        assert new.stabilization_index == old.stabilization_index
        assert new.eventual_basis == old.eventual_basis
        assert new.reduced_endomorphism == old.reduced_endomorphism
        assert new.classify() == old.classify()
        indices.add(new.stabilization_index)
        for _ in range(4):
            stage = rng.randint(0, 3)
            v = [rng.randint(-4, 4) for _ in range(T.rows)]
            a, b = new.from_ambient(stage, v), old.from_ambient(stage, v)
            assert (a.stage, a.vector) == (b.stage, b.vector)
    assert {0, 1, 2, 3} <= indices


def test_echelon_span_matches_rational_gauss_jordan():
    for A in normal_form_stream(seed=47, count=480):
        E, want = echelon_span(A), echelon_span_oracle(A)
        assert (E.shape, E._entries) == (want.shape, want._entries)
        assert E.cols == rank(A)


def test_echelon_span_with_shared_multiplier_factors_matches_rational_gauss_jordan(monkeypatch):
    # Entries with the common factors 2 and 3 give multiplier pairs (p, a) that
    # share a factor.  The recorder sees the pair of each elimination step and
    # the line it came from: one line for the forward steps, one for the
    # back-reductions.
    steps = []

    def recording_gcd(*args):
        frame = sys._getframe(1)
        if frame.f_code is echelon_span.__code__:
            steps.append((frame.f_lineno, args))
        return gcd(*args)

    monkeypatch.setattr(solk.intlin, "gcd", recording_gcd)
    rng = random.Random(73)
    entries = (0, 0, 2, -2, 4, -4, 6, -6, 3, 9)
    for _ in range(400):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        A = IntMatrix(m, n, [rng.choice(entries) for _ in range(m * n)])
        E, want = echelon_span(A), echelon_span_oracle(A)
        assert (E.shape, E._entries) == (want.shape, want._entries)
    forward, back = sorted({line for line, _ in steps})
    for line in (forward, back):
        pairs = [(p, a) for at, (p, a) in steps if at == line]
        assert any(p == 1 for p, a in pairs)  # unit pivot
        assert any(1 < gcd(p, a) == p for p, a in pairs)  # p divides a: a unit pivot once divided
        assert any(1 < gcd(p, a) < p for p, a in pairs)  # a reduced pair that leaves p > 1


def test_echelon_span_of_repeated_columns_matches_rational_gauss_jordan():
    # Repeated, negated, scaled and zero columns: the distinct ones go in once,
    # and the basis depends only on the Q-span.
    rng = random.Random(67)
    for A in normal_form_stream(seed=71, count=200):
        extra = []
        for j in range(A.cols):
            col, c = A.col(j), rng.randint(2, 5)
            extra += [col, col, tuple(-x for x in col), tuple(c * x for x in col)]
        cols = [A.col(j) for j in range(A.cols)] + extra + [(0,) * A.rows]
        rng.shuffle(cols)
        B = IntMatrix.from_rows(cols, cols=A.rows).transpose()
        E, want = echelon_span(B), echelon_span_oracle(B)
        assert (E.shape, E._entries) == (want.shape, want._entries)
        assert E == echelon_span(A)
    edge = M([[1, 1, 0, 1, 1], [0, 0, 1, 0, 0], [1, 1, 0, 1, 1]])  # three equal columns
    assert echelon_span(edge) == echelon_span_oracle(edge)
    assert echelon_span(edge).to_rows() == [[1, 0], [0, 1], [1, 0]]


def saturation_cases():
    M = IntMatrix.from_rows
    yield from normal_form_stream(seed=53, count=480)
    yield M([[2], [1]])  # saturated, but its Hermite pivot is 2
    yield M([[1], [2]])
    yield M([[2, 0], [1, 3]])
    yield M([[2], [2]])  # index 2 in its saturation
    yield M([[1, 1], [1, -1]])
    yield M([[2, 0], [0, 1], [0, 0]])
    yield M([[4, 2], [0, 0], [2, 4]])
    yield M([[0, 0], [0, 2], [0, 2]])  # a zero column
    yield IntMatrix.zeros(3, 2)
    yield from (IntMatrix.zeros(r, c) for r in range(3) for c in range(3) if r * c == 0)


def test_one_path_saturation_matches_two_kernel_oracle(monkeypatch):
    factored = count_calls(monkeypatch, solk.intlin, "smith_normal_form")
    congruences = 0
    for A in saturation_cases():
        E = echelon_span(A)
        unit = all(next(filter(None, E.col(j))) == 1 for j in range(E.cols))
        got, want = saturate_columns(A), saturate_columns_oracle(A)
        assert (got.shape, got._entries) == (want.shape, want._entries)
        congruences += not unit
    assert factored == {"smith_normal_form": 0}
    assert congruences >= 100  # the congruence sweep ran, not only the unit-pivot case
    assert saturate_columns(IntMatrix.from_rows([[2], [1]])).to_rows() == [[2], [1]]
    # Full rank with non-unit pivots: Z^3 itself, whatever the index.
    full = IntMatrix.from_rows([[2, 1, 0], [0, 3, 1], [1, 0, 4]])
    assert saturate_columns(full) == saturate_columns_oracle(full) == IntMatrix.identity(3)


def column_hnf_bases(seed: int, count: int):
    """Column HNFs of seeded random matrices (pivots of either size), empty ones included."""
    rng = random.Random(seed)
    yield IntMatrix.zeros(3, 0)
    for _ in range(count):
        B = column_hnf(random_int_matrix(rng, max_dim=6, lo=-4, hi=4))
        if rng.random() < 0.3 and B.cols:
            c, n = rng.randint(2, 3), B.cols
            B = column_hnf(B @ IntMatrix(n, n, [c * x for x in IntMatrix.identity(n)._entries]))
        yield B


def test_echelon_solve_matches_smith_solve():
    rng = random.Random(59)
    outcomes = set()
    for B in column_hnf_bases(seed=61, count=400):
        k = rng.randint(0, 3)
        X = IntMatrix(B.cols, k, [rng.randint(-3, 3) for _ in range(B.cols * k)])
        noise = IntMatrix(B.rows, k, [rng.randint(-2, 2) for _ in range(B.rows * k)])
        for C in (B @ X, plus(B @ X, noise)):
            got = solve_echelon(B, C)
            assert got == solve_columns(B, C)
            outcomes.add(got is None)
        with pytest.raises(ValueError, match="row count"):
            solve_echelon(B, IntMatrix.zeros(B.rows + 1, 1))
    assert outcomes == {True, False}
    # The two ways to fail: a pivot that does not divide, and a row off the pivots.
    B = IntMatrix.from_rows([[2, 0], [1, 1], [0, 1]])
    assert solve_echelon(B, IntMatrix.column([1, 0, 0])) is None
    assert solve_columns(B, IntMatrix.column([1, 0, 0])) is None
    assert solve_echelon(B, IntMatrix.column([2, 1, 1])) is None
    assert solve_columns(B, IntMatrix.column([2, 1, 1])) is None
    assert solve_echelon(B, IntMatrix.column([2, 2, 1])).to_rows() == [[1], [1]]
    # Only a row off the pivots is wrong: the pivot rows alone would give X = (1, 1).
    B = IntMatrix.from_rows([[1, 0], [3, 0], [0, 2], [5, 7]])
    assert solve_echelon(B, IntMatrix.column([1, 3, 2, 11])) is None
    assert solve_columns(B, IntMatrix.column([1, 3, 2, 11])) is None
    assert solve_echelon(B, IntMatrix.column([1, 3, 2, 12])).to_rows() == [[1], [1]]
    # A basis not in column echelon form is refused: pivots out of order, a
    # repeated pivot row, a zero column.
    for rows in ([[0, 1], [1, 0]], [[1, 2], [0, 1]], [[1, 0], [0, 0]]):
        with pytest.raises(ValueError, match="echelon"):
            solve_echelon(IntMatrix.from_rows(rows), IntMatrix.column([3, 5]))


def test_echelon_solve_on_tall_bases_matches_smith_solve():
    # Many more rows than pivots, as for an eventual basis: only the rows off
    # the pivots are checked, and a single wrong one must still give None.
    rng = random.Random(73)
    outcomes = set()
    for _ in range(150):
        rows, cols = rng.randint(4, 12), rng.randint(0, 3)
        B = column_hnf(IntMatrix(rows, cols, [rng.randint(-3, 3) for _ in range(rows * cols)]))
        pivots = {next(i for i, x in enumerate(B.col(j)) if x) for j in range(B.cols)}
        X = IntMatrix(B.cols, 2, [rng.randint(-3, 3) for _ in range(B.cols * 2)])
        C = (B @ X).to_rows()
        off = rng.choice([i for i in range(rows) if i not in pivots])
        C[off][rng.randrange(2)] += rng.choice([-1, 1])
        for C in (B @ X, IntMatrix.from_rows(C, cols=2)):
            got = solve_echelon(B, C)
            assert got == solve_columns(B, C)
            outcomes.add(got is None)
    assert outcomes == {True, False}


def test_one_pass_trace_pullback_matches_class_scan_oracle():
    wedges = [parse_presentation(wedge_text(k)) for k in range(2, 11)]
    for p in presentations() + wedges:
        model = occurring_classes(p)
        for order in ("lex", "paper"):
            m = with_class_order(model, order)
            assert trace_pullback_matrix(p, m) == trace_pullback_matrix_oracle(p, m)


def class_models():
    """Seeded valid presentations and wedges 2..18, each in both class orders."""
    wedges = [parse_presentation(wedge_text(k)) for k in range(2, 19)]
    for p in random_valid_presentations(seed=7, count=300) + wedges:
        model = occurring_classes(p)
        for order in ("lex", "paper"):
            yield p, with_class_order(model, order)


def test_paper_order_is_the_lex_model_under_the_class_permutation():
    # with_class_order permutes every per-class table with the classes and
    # renumbers gtilde's entries, so the trace pullback is conjugated by the
    # permutation matrix: P_paper = Pi P_lex Pi^T.
    reversed_orders = 0
    for p, m in class_models():
        lex, paper = with_class_order(m, "lex"), with_class_order(m, "paper")
        where = {c: i for i, c in enumerate(lex.classes)}
        pi = [where[c] for c in paper.classes]  # paper position k holds lex class pi[k]
        assert sorted(pi) == list(range(len(pi)))
        for name in ("interior_preimage_table", "preimage_counts", "arcs"):
            assert getattr(paper, name) == tuple(getattr(lex, name)[i] for i in pi)
        assert [paper.classes[j] for j in paper.gtilde] == [
            lex.classes[lex.gtilde[i]] for i in pi
        ]
        assert paper.edge_components == lex.edge_components
        n = len(pi)
        Pi = IntMatrix(n, n, [int(j == pi[k]) for k in range(n) for j in range(n)])
        P = trace_pullback_matrix(p, lex)
        assert trace_pullback_matrix(p, paper) == Pi @ P @ Pi.transpose()
        reversed_orders += n > 1 and pi == list(reversed(range(n)))
    assert reversed_orders >= 100


def class_graph_components(p, m) -> set[frozenset[int]]:
    """The components of the class graph (edges as nodes, classes as arcs), as edge indices."""
    idx = {e: i for i, e in enumerate(p.graph.edge_names())}
    parts = [{i} for i in range(len(idx))]
    for c in m.classes:
        a, b = parts[idx[c.in_edge]], parts[idx[c.out_edge]]
        if a is not b:
            a |= b
            for i in b:
                parts[i] = a
    return {frozenset(part) for part in parts}


def forest_models():
    """``class_models()`` and the full-rank closure families, each in both class orders."""
    families = [closure_stress_text(n) for n in (9, 15, 21)] + [cyclic_text(n) for n in (8, 14, 20)]
    models = list(class_models())
    for p in map(parse_presentation, families):
        model = occurring_classes(p)
        models += [(p, with_class_order(model, order)) for order in ("lex", "paper")]
    return models


def class_forest(p, m) -> tuple[IntMatrix, list[int]]:
    """The sparse K0 rows of ``_class_forest`` as a dense matrix, and the cycle starts."""
    rows, starts = _class_forest(m.arcs, len(p.graph.edges))
    d = len(starts)
    return IntMatrix(len(rows), d, [row.get(t, 0) for row in rows for t in range(d)]), starts


def test_spanning_forest_kernel_matches_smith_kernel():
    disconnected = 0
    for p, m in class_models():
        delta0 = boundary_matrix(p, m)
        assert class_forest(p, m)[0] == kernel_basis_oracle(delta0)
        disconnected += len(class_graph_components(p, m)) > 1
    assert disconnected >= 10  # class graphs with several components ran


def test_sparse_class_forest_matches_the_dense_chain_reference():
    models = forest_models()
    for p, m in models:
        K, starts = class_forest(p, m)
        reference = class_forest_oracle(p, m)
        assert K == reference
        # Each cycle starts at its first nonzero row, with entry 1.
        cols = map(reference.col, range(reference.cols))
        assert starts == [next(i for i, x in enumerate(col) if x) for col in cols]
        assert all(K[j, t] == 1 for t, j in enumerate(starts))
    assert max(len(m.classes) for _, m in models) == 441  # stress 21 ran


def test_psi1_from_cokernel_rows_matches_conjugation_oracle():
    disconnected = 0
    for p, m in class_models():
        delta0, E = boundary_matrix(p, m), first_edge_matrix(p)
        # On these models the components in last-edge order are in Smith order.
        assert psi_star_k1(p, m) == psi1_oracle(delta0, E)
        # The rows of U past the rank are the 0/1 indicators of the components.
        snf = smith_normal_form(delta0)
        gens = snf.U.to_rows()[snf.rank():]
        assert all(x in (0, 1) for row in gens for x in row)
        supports = {frozenset(i for i, x in enumerate(row) if x) for row in gens}
        assert len(supports) == len(gens)
        assert supports == class_graph_components(p, m)
        disconnected += len(gens) > 1
    assert disconnected >= 10


def test_psi1_is_the_smith_oracle_in_last_edge_order():
    p = parse_presentation(THREE_COMPONENTS_TEXT)
    model = occurring_classes(p)
    for order in ("lex", "paper"):
        m = with_class_order(model, order)
        delta0, E = boundary_matrix(p, m), first_edge_matrix(p)
        psi1 = psi_star_k1(p, m)
        # e1 -> e4 ..., e3 -> e2 ...: {e1, e2} goes to {e0, e4, e5}, {e3} to {e1, e2}.
        assert psi1.to_rows() == [[0, 1, 0], [0, 0, 0], [1, 0, 1]]
        snf = smith_normal_form(delta0)
        gens = snf.U.to_rows()[snf.rank():]
        last = [max(i for i, x in enumerate(row) if x) for row in gens]
        perm = sorted(range(len(gens)), key=last.__getitem__)
        assert perm == [1, 0, 2]
        assert psi1 == psi1_oracle(delta0, E).submatrix(perm, perm)


def test_psi0_from_the_class_graph_matches_the_dense_solve():
    # Seeded presentations and wedges 2..18, and the full-rank closure families.
    models = forest_models()
    for p, m in models:
        assert psi_star_k0(p, m) == psi0_dense_oracle(p, m)
    assert max(len(m.classes) for _, m in models) == 441  # stress 21 ran


def test_connecting_maps_of_a_substitution_power_are_the_powers():
    # psi0(g^k) == psi0(g)^k and psi1(g^k) == psi1(g)^k on the same classes.
    named = [aabab(), fibonacci(), n_solenoid(3)]
    wedges = [parse_presentation(wedge_text(k)) for k in range(2, 10)]
    pairs = 0
    for p in named + wedges + random_valid_presentations(seed=7, count=120):
        model = occurring_classes(p)
        psi0, psi1 = psi_star_k0(p, model), psi_star_k1(p, model)
        power0, power1 = psi0, psi1
        for k in (2, 3):
            q = substitution_power(p, k)
            q_model = occurring_classes(q)
            assert q_model.classes == model.classes
            power0, power1 = power0 @ psi0, power1 @ psi1
            assert psi_star_k0(q, q_model) == power0
            assert psi_star_k1(q, q_model) == power1
            pairs += 1
    assert pairs == 262


def test_k1_rank_counts_the_class_graph_components():
    for p, m in class_models():
        k1_rank = psi_star_k1(p, m).rows
        assert k1_rank == len(class_graph_components(p, m))
        assert k1_rank == cokernel_oracle(boundary_matrix(p, m)).free_rank
        assert quotient_summary(p).connected == (k1_rank == 1)


def test_component_sums_decide_well_definedness_like_smith_solve(monkeypatch):
    rng = random.Random(67)
    outcomes = set()
    for p, m in class_models():
        delta0, E = boundary_matrix(p, m), first_edge_matrix(p)
        rows = E.to_rows()
        j, i = rng.randrange(E.cols), rng.randrange(E.rows)
        for r, row in enumerate(rows):
            row[j] = int(r == i)
        for F in (E, IntMatrix.from_rows(rows, cols=E.cols)):
            want = smith_normal_form(delta0).solve(F @ delta0) is not None
            monkeypatch.setattr(solk.ktheory, "first_edge_matrix", lambda p, F=F: F)
            try:
                psi_star_k1(p, m)
                got = True
            except NotWellDefined:
                got = False
            assert got == want
            outcomes.add(got)
    assert outcomes == {True, False}


def test_adjugate_retraction_matches_smith_solve():
    rng = random.Random(71)
    retracted, ranks = 0, set()
    for T in endomorphism_stream(seed=73):
        g = StationaryLimitGroup(T)
        ranks.add(g.eventual_rank)
        t = g.reduced_endomorphism
        for stage in range(4):
            v = [rng.randint(-4, 4) for _ in range(g.eventual_rank)]
            for _ in range(rng.randint(0, 2)):  # some vectors in the image of T'
                v = t.mul_vector(v)
            a, b = g._canonical(stage, tuple(v)), canonical_oracle(g, stage, tuple(v))
            assert (a.stage, a.vector) == (b.stage, b.vector)
            retracted += a.stage < stage
    assert 0 in ranks and retracted >= 50


def test_element_equal_by_representative_matches_promotion():
    # element_equal compares (stage, vector); that is sound only while every
    # element that element, from_ambient, element_add and element_negate
    # return is the least-stage representative of what it was given.
    rng = random.Random(101)
    kinds, equal_pairs = set(), 0
    for T in endomorphism_stream(seed=103):
        g = StationaryLimitGroup(T)
        t, (adj, det) = g.reduced_endomorphism, adjugate(g.reduced_endomorphism)
        if not g.eventual_rank:  # every element is zero
            continue
        kinds.add((g.eventual_rank == T.rows, abs(det) == 1))
        given = []  # (element, raw representative of the same value)
        for stage in range(3):
            v = [rng.randint(-3, 3) for _ in range(g.eventual_rank)]
            for lift in range(3):  # (s, v), (s+1, T'v), (s+2, T'^2 v): one element
                given.append((g.element(stage + lift, v), LimitElement(g, stage + lift, tuple(v))))
                v = t.mul_vector(v)
            x = y = [rng.randint(-3, 3) for _ in range(T.rows)]
            for _ in range(g.stabilization_index):  # into the eventual lattice
                y = T.mul_vector(y)
            coords = solve_columns(g.eventual_basis, IntMatrix.column(y)).col(0)
            raw = LimitElement(g, stage + g.stabilization_index, coords)
            given.append((g.from_ambient(stage, x), raw))
        els = [e for e, _ in given]
        pairs = list(zip(els[::2], els[5::2]))
        els += [element_add(a, b) for a, b in pairs] + [element_add(b, a) for a, b in pairs]
        els += [element_negate(a) for a in els[::3]] + [g.zero()]
        els += [element_add(a, element_negate(a)) for a in els[::4]]
        for e, raw in given:
            assert element_equal_oracle(e, raw)
        for e in els:
            assert e.stage == 0 or any(x % det for x in adj.mul_vector(e.vector))
        for a in els:
            for b in els:
                assert element_equal(a, b) == element_equal_oracle(a, b)
                equal_pairs += a is not b and a.stage > 0 and element_equal(a, b)
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}
    assert equal_pairs > 1000  # equal at a positive stage, built apart


def test_det_psi0_is_det_of_the_abelianization_where_gtilde_is_a_bijection():
    # On these families gtilde permutes the classes, so psi0 restricted to the
    # cycles of the class graph has finite order and det(psi0) is det of the
    # substitution matrix, sign included.
    for text in (closure_stress_text(9), closure_stress_text(15), cyclic_text(8), cyclic_text(14)):
        p = parse_presentation(text)
        model = occurring_classes(p)
        assert sorted(model.gtilde) == list(range(len(model.classes)))
        assert determinant(psi_star_k0(p, model)) == determinant(abelianization(p)) != 0


def test_conjugate_endomorphisms_have_isomorphic_limits():
    # lim(Z^r, T) and lim(Z^r, V T V^-1) are isomorphic for unimodular V:
    # equal eventual rank, stabilization index and |det T'|.
    rng, indices = random.Random(89), set()
    for T in endomorphism_stream(seed=97):
        V = random_unimodular(rng, T.rows) if T.rows else T
        adj, det = adjugate(V)  # V^-1 = det(V) adj(V), since det(V) = +-1
        inverse = IntMatrix(adj.rows, adj.cols, [det * x for x in adj._entries])
        assert inverse @ V == IntMatrix.identity(T.rows)
        g, h = StationaryLimitGroup(T), StationaryLimitGroup(V @ T @ inverse)
        assert h.eventual_rank == g.eventual_rank
        assert h.stabilization_index == g.stabilization_index
        assert abs(determinant(h.reduced_endomorphism)) == abs(determinant(g.reduced_endomorphism))
        indices.add(g.stabilization_index)
    assert {0, 1, 2, 3} <= indices


def _irreducible_matrix(monkeypatch):
    """``perfbench/corpus.py``'s generator of the sft-limits matrices, loaded read-only."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module.irreducible_matrix


def test_an_sft_and_its_edge_shift_have_isomorphic_limits(monkeypatch):
    # The edge shift is conjugate to the SFT, so the two transfer maps have
    # isomorphic stationary limits: equal eventual rank and det T', sign included.
    irreducible_matrix, dets = _irreducible_matrix(monkeypatch), set()
    for n in range(2, 7):
        for seed in range(12):
            s = SftPresentation.from_matrix(irreducible_matrix(n, random.Random(f"edge{n}:{seed}")))
            e = edge_shift(s)
            assert len(e.states) > n
            g, h = sft_dimension_group(s).k0, sft_dimension_group(e).k0
            assert h.eventual_rank == g.eventual_rank
            det = determinant(g.reduced_endomorphism)
            assert determinant(h.reduced_endomorphism) == det
            dets.add(det)
    assert len(dets) > 10 and min(dets) < 0 < max(dets)


def test_edge_shift_rows_per_state_match_pairwise_oracle():
    rng = random.Random(101)
    fixed = [[], [[0]], [[3]], [[1, 0], [0, 1]], [[0, 2], [1, 0]]]
    seeded = []
    for _ in range(300):
        n, density = rng.randrange(7), rng.random()
        cells = [rng.randint(1, 3) if rng.random() < density else 0 for _ in range(n * n)]
        seeded.append([cells[i * n : i * n + n] for i in range(n)])
    for rows in fixed + seeded:
        s = SftPresentation.from_matrix(rows)
        got, want = edge_shift(s), edge_shift_oracle(s)
        assert got.states == want.states
        assert (got.adjacency.shape, got.adjacency._entries) == (
            want.adjacency.shape,
            want.adjacency._entries,
        )


def test_strongly_connected_by_boolean_squaring_matches_search():
    rng = random.Random(97)
    fixed = [[], [[0]], [[1]], [[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 1], [0, 1]]]
    seeded = []
    for _ in range(600):
        n, density = rng.randrange(10), rng.random()
        cells = [rng.randint(1, 2) if rng.random() < density else 0 for _ in range(n * n)]
        seeded.append([cells[i * n : i * n + n] for i in range(n)])
    outcomes = set()
    for rows in fixed + seeded:
        A = IntMatrix.from_rows(rows, cols=len(rows))
        want = strongly_connected_oracle(A)
        report = validate_sft(SftPresentation.from_matrix(rows))
        reducible = any(f.code == "reducible" for f in report.warnings())
        assert reducible == (report.ok and not want)
        outcomes.add((report.ok, want))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}
