import copy
import pickle
import random

import pytest

import solk.intlin
from solk.intlin import IntMatrix, NotInvariant, determinant, eventual_lattice
from solk.limits import (
    StationaryLimitGroup,
    classify,
    element_add,
    element_equal,
    element_negate,
    element_positive,
    make_limit,
    stationary_torsion_limit,
)
from solk.ktheory import ktheory_report
from solk.model import parse_presentation

from helpers import count_calls, dense_edge_shift, random_unimodular, record_calls, wedge_text
from test_golden import PIVOTS2_MATRIX


def M(rows):
    return IntMatrix.from_rows(rows)


def test_make_limit_times_n():
    g = make_limit(M([[3]]))
    assert g.eventual_rank == 1
    assert g.reduced_endomorphism.to_rows() == [[3]]
    assert str(g.classify()) == "ZOneOver(3)"


def test_make_limit_unimodular():
    g = make_limit(M([[2, 1], [1, 1]]))
    assert g.eventual_rank == 2
    assert abs(determinant(g.reduced_endomorphism)) == 1
    assert str(g.classify()) == "FreeAbelian(2)"


def test_make_limit_rank_drop():
    # T^2 = 2T: eventual lattice is spanned by (1,1), restriction is x2.
    g = make_limit(M([[1, 1], [1, 1]]))
    assert g.eventual_rank == 1
    assert g.eventual_basis.to_rows() == [[1], [1]]
    assert g.reduced_endomorphism.to_rows() == [[2]]
    assert str(g.classify()) == "ZOneOver(2)"


def test_make_limit_nilpotent_is_trivial():
    g = make_limit(M([[0, 1], [0, 0]]))
    assert g.eventual_rank == 0
    assert str(g.classify()) == "FreeAbelian(0)"
    assert element_equal(g.zero(), g.zero())


def test_element_defining_identification():
    g = make_limit(M([[2]]))
    for v in (-3, -1, 0, 1, 2, 7):
        a = g.element(0, [v])
        b = g.element(1, [2 * v])
        assert element_equal(a, b)


def test_element_equal_z_half():
    g = make_limit(M([[2]]))
    assert not element_equal(g.element(1, [1]), g.element(0, [1]))
    assert element_equal(g.element(2, [2]), g.element(1, [1]))


def test_element_canonical_form():
    g = make_limit(M([[2]]))
    e = g.element(3, [4])  # 4/8 = 1/2
    assert e.stage == 1 and e.vector == (1,)
    z = g.element(5, [0])
    assert z.stage == 0 and z.vector == (0,)


def test_element_addition_examples():
    g = make_limit(M([[2]]))
    half = g.element(1, [1])
    one = element_add(half, half)
    assert one.stage == 0 and one.vector == (1,)
    quarter = g.element(2, [1])
    threq = element_add(quarter, half)
    assert threq.stage == 2 and threq.vector == (3,)


def test_element_negation_and_zero():
    g = make_limit(M([[2]]))
    a = g.element(2, [3])
    assert element_equal(element_add(a, element_negate(a)), g.zero())


def test_element_errors():
    g = make_limit(M([[2]]))
    h = make_limit(M([[2]]))
    with pytest.raises(ValueError):
        element_equal(g.element(0, [1]), h.element(0, [1]))
    with pytest.raises(ValueError):
        g.element(-1, [1])
    with pytest.raises(ValueError):
        g.element(0, [1, 2])
    with pytest.raises(ValueError, match="elements of different groups"):
        element_add(g.element(0, [1]), h.element(0, [1]))
    for group in (g, make_limit(M([[1, 1], [1, 1]]))):  # full rank, then singular
        with pytest.raises(ValueError, match="vector length must equal the ambient rank"):
            group.from_ambient(0, [1, 2, 3])
    with pytest.raises(ValueError, match="endomorphism must be square"):
        StationaryLimitGroup(M([[1, 2]]))


def test_from_ambient():
    g = make_limit(M([[1, 1], [1, 1]]))
    # Ambient (1,1) is the eventual basis vector itself.
    e = g.from_ambient(0, (1, 1))
    assert e.stage == 0 and e.vector == (1,)
    # The defining identification holds for ambient representatives too.
    assert element_equal(g.from_ambient(0, (1, 1)), g.from_ambient(1, (2, 2)))
    assert not element_equal(g.from_ambient(1, (1, 1)), g.from_ambient(0, (1, 1)))


def test_full_rank_from_ambient_reads_the_vector(monkeypatch):
    # At stabilization index 0 the eventual basis is the identity: no solve.
    g = make_limit(M([[2, 1], [1, 1]]))
    assert g.stabilization_index == 0
    solves = count_calls(monkeypatch, solk.intlin, "solve_echelon")
    e = g.from_ambient(1, [3, 2])
    assert (e.stage, e.vector) == (0, (1, 1))  # (3, 2) = T (1, 1)
    assert solves == {"solve_echelon": 0}


@pytest.mark.parametrize("T", [[[2]], [[2, 0], [0, 0]]], ids=["full-rank", "singular"])
def test_from_ambient_rejects_a_negative_stage(T):
    # The push by the stabilization index must not make a negative stage pass.
    g = make_limit(M(T))
    for stage in (-1, -2):
        with pytest.raises(ValueError, match="stage must be nonnegative"):
            g.element(stage, [3] * g.eventual_rank)
        with pytest.raises(ValueError, match="stage must be nonnegative"):
            g.from_ambient(stage, [3, 1][: g.ambient_rank])


@pytest.mark.parametrize(
    "T",
    [[[2, 1], [1, 1]], [[1, 1], [1, 1]]],  # full rank (index 0), singular (index 1)
    ids=["full-rank", "singular"],
)
@pytest.mark.parametrize("bad", [2.9, 3.0, "7"])
def test_element_and_from_ambient_reject_non_integral_vectors(T, bad):
    g = make_limit(M(T))
    with pytest.raises(TypeError):
        g.element(0, [bad] * g.eventual_rank)
    with pytest.raises(TypeError):
        g.from_ambient(0, [bad, 1])
    with pytest.raises(TypeError):
        g.from_ambient(1, [1, bad])
    # A stage is read the same way: a fractional one would reach element_add's promotion.
    with pytest.raises(TypeError):
        g.element(bad, [1] * g.eventual_rank)
    with pytest.raises(TypeError):
        g.from_ambient(bad, [1, 1])
    # A bool reads as 1, as it does for int().
    e = g.element(0, [True] * g.eventual_rank)
    assert e.vector == (1,) * g.eventual_rank and all(type(x) is int for x in e.vector)
    a, b = g.from_ambient(0, [True, True]), g.from_ambient(0, [1, 1])
    assert (a.stage, a.vector) == (b.stage, b.vector)


def test_classify_z_one_over_negative():
    g = make_limit(M([[-3]]))
    assert str(g.classify()) == "ZOneOver(3)"


def test_classify_generic():
    g = make_limit(M([[2, 0], [0, 2]]))
    c = g.classify()
    assert c.kind == "generic" and c.rank == 2
    assert "Generic" in str(c)
    assert classify(g) is c


def test_classify_invariant_under_unimodular_conjugation():
    rng = random.Random(99)
    mats = [M([[3]]), M([[2, 1], [1, 1]]), M([[1, 1], [1, 1]]), M([[2, 0], [0, 2]]),
            M([[4, 1], [0, 2]])]
    for t in mats:
        base = make_limit(t).classify()
        for _ in range(8):
            u = random_unimodular(rng, t.rows)
            uinv_t_u = None
            from solk.intlin import invert_unimodular
            uinv_t_u = invert_unimodular(u) @ t @ u
            c = make_limit(uinv_t_u).classify()
            assert c.kind == base.kind
            assert c.rank == base.rank
            assert c.n == base.n


def test_group_axioms_random():
    rng = random.Random(4242)
    mats = [M([[2]]), M([[2, 1], [1, 1]]), M([[1, 1], [1, 1]]), M([[3, 0], [0, 2]])]
    for t in mats:
        g = make_limit(t)
        r = g.eventual_rank

        def rand_el():
            return g.element(rng.randint(0, 3), [rng.randint(-4, 4) for _ in range(r)])

        for _ in range(25):
            a, b, c = rand_el(), rand_el(), rand_el()
            assert element_equal(element_add(a, b), element_add(b, a))
            assert element_equal(
                element_add(element_add(a, b), c), element_add(a, element_add(b, c))
            )
            assert element_equal(element_add(a, g.zero()), a)
            assert element_equal(element_add(a, element_negate(a)), g.zero())
            # Canonical form is stable under re-canonicalization.
            again = g.element(a.stage, a.vector)
            assert again.stage == a.stage and again.vector == a.vector


def test_stage_doubling_embedding():
    # lim(Z^r, T) and lim(Z^r, T^2) agree: (k, v) -> (k, T'^k v) is an
    # injective homomorphism and (k, w) -> (2k, w) is its section.
    rng = random.Random(7)
    for t in [M([[2]]), M([[2, 1], [1, 1]]), M([[1, 1], [1, 1]]), M([[3, 1], [0, 2]])]:
        g = make_limit(t)
        h = make_limit(t @ t)
        assert g.eventual_basis == h.eventual_basis
        assert h.reduced_endomorphism == g.reduced_endomorphism @ g.reduced_endomorphism
        r = g.eventual_rank

        def mu(el):
            v = el.vector
            for _ in range(el.stage):
                v = g.reduced_endomorphism.mul_vector(v)
            return h.element(el.stage, v)

        def nu(el):
            return g.element(2 * el.stage, el.vector)

        for _ in range(20):
            a = g.element(rng.randint(0, 3), [rng.randint(-3, 3) for _ in range(r)])
            b = g.element(rng.randint(0, 3), [rng.randint(-3, 3) for _ in range(r)])
            assert element_equal(mu(element_add(a, b)), element_add(mu(a), mu(b)))
            if element_equal(mu(a), mu(b)):
                assert element_equal(a, b)
            w = h.element(rng.randint(0, 2), [rng.randint(-3, 3) for _ in range(r)])
            assert element_equal(mu(nu(w)), w)


def test_group_structural_invariants():
    rng = random.Random(515)
    mats = [M([[3]]), M([[2, 1], [1, 1]]), M([[1, 1], [1, 1]]), M([[0, 1], [0, 0]]),
            M([[2, 0, 0], [0, 0, 1], [0, 0, 0]])]
    for _ in range(15):
        n = rng.randint(1, 3)
        mats.append(M([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]))
    for t in mats:
        g = make_limit(t)
        r = t.rows
        # The endomorphism preserves the eventual lattice and restricts injectively.
        assert t @ g.eventual_basis == g.eventual_basis @ g.reduced_endomorphism
        if g.eventual_rank > 0:
            assert determinant(g.reduced_endomorphism) != 0
        # Rank of powers has stabilized at the eventual rank.
        from solk.intlin import rank
        assert rank(t.power(r)) == g.eventual_rank
        assert rank(t.power(r + 1)) == g.eventual_rank


def test_element_positive_z_one_over():
    g = make_limit(M([[2]]))
    assert element_positive(g.element(1, [1]))  # 1/2
    assert not element_positive(g.element(2, [-3]))  # -3/4
    assert not element_positive(g.zero())
    a, b = g.element(1, [1]), g.element(3, [5])
    assert element_positive(element_add(a, b))
    # Order is preserved by the connecting identification.
    assert element_positive(g.element(4, [8]))


def test_element_positive_undefined_elsewhere():
    with pytest.raises(ValueError, match="order structure"):
        element_positive(make_limit(M([[2, 1], [1, 1]])).zero())
    with pytest.raises(ValueError, match="order structure"):
        element_positive(make_limit(M([[-3]])).element(0, [1]))


def test_torsion_limit_examples():
    # Z/4 under x2 dies; Z/3 under x2 survives; Z/6 under x2 keeps Z/3.
    assert stationary_torsion_limit((4,), M([[2]])) == ()
    assert stationary_torsion_limit((3,), M([[2]])) == (3,)
    assert stationary_torsion_limit((6,), M([[2]])) == (3,)
    assert stationary_torsion_limit((2, 4), M([[1, 0], [0, 1]])) == (2, 4)
    assert stationary_torsion_limit((2, 2), M([[0, 1], [1, 0]])) == (2, 2)
    with pytest.raises(ValueError):
        stationary_torsion_limit((1,), M([[1]]))
    with pytest.raises(ValueError, match="endomorphism shape must match the moduli"):
        stationary_torsion_limit((2,), M([[1, 0], [0, 1]]))


def test_from_ambient_outside_eventual_lattice_is_runtime_error(monkeypatch):
    # An internal exactness check: it must raise a real error, also under -O.
    g = make_limit(M([[1, 1], [1, 1]]))
    monkeypatch.setattr("solk.limits.solve_echelon", lambda A, B: None)
    with pytest.raises(RuntimeError, match="eventual lattice"):
        g.from_ambient(0, (1, 1))


def test_eventual_lattice_not_invariant_raises(monkeypatch):
    # The restriction solves E T' = T E with the kept product; a failed solve
    # is a real error, also under -O.
    monkeypatch.setattr("solk.intlin.solve_echelon", lambda A, B: None)
    with pytest.raises(NotInvariant):
        make_limit(M([[1, 1], [1, 1]]))


@pytest.mark.parametrize(
    "T",
    [
        M([list(map(int, row.split(","))) for row in PIVOTS2_MATRIX.split(";")]),
        dense_edge_shift(),
        M([[2, 1], [1, 1]]),
        M([[0]]),
    ],
    ids=["pivots-2", "edge-shift-56", "full-rank", "zero"],
)
def test_group_reads_its_lattice_from_eventual_lattice(T):
    g = StationaryLimitGroup(T)
    assert eventual_lattice(T) == (
        g.stabilization_index, g.eventual_basis, g.reduced_endomorphism
    )
    assert (g.ambient_rank, g.endomorphism, g.eventual_rank) == (T.rows, T, g.eventual_basis.cols)


def test_eventual_lattice_of_a_non_square_matrix_raises():
    with pytest.raises(ValueError, match="endomorphism must be square"):
        eventual_lattice(IntMatrix.zeros(2, 3))


def test_saturation_that_changes_the_basis_multiplies_once_more(monkeypatch):
    # im T is spanned by (2, 0, 1) and (0, 2, 1), echelon pivots 2; the
    # saturation adds (1, 1, 1).  The span iteration runs in the pivot rows
    # of im T, so T itself is multiplied once, by the saturated basis.
    T = M([[2, 0, 0], [0, 2, 0], [1, 1, 0]])
    matmul, products = IntMatrix.__matmul__, []
    monkeypatch.setattr(
        IntMatrix, "__matmul__", lambda a, b: products.append(a == T) or matmul(a, b)
    )
    g = StationaryLimitGroup(T)
    monkeypatch.undo()
    assert g.stabilization_index == 1
    assert sum(products) == 1
    assert g.eventual_basis.to_rows() == [[1, 0], [1, 2], [1, 1]]
    assert g.reduced_endomorphism.to_rows() == [[2, 0], [0, 2]]
    assert T @ g.eventual_basis == g.eventual_basis @ g.reduced_endomorphism


def test_torsion_limit_relations_outside_image_is_runtime_error(monkeypatch):
    monkeypatch.setattr("solk.limits.solve_echelon", lambda A, B: None)
    with pytest.raises(RuntimeError, match="relations lattice"):
        stationary_torsion_limit((3,), M([[2]]))


def test_element_operations_factor_each_matrix_once(monkeypatch):
    # Eventual rank 2 inside Z^3 and det T' = -2, so some retractions succeed.
    g = make_limit(M([[1, 1, 0], [1, 0, 1], [1, 1, 0]]))
    factored = record_calls(monkeypatch, solk.intlin, "smith_normal_form")
    power, powers = IntMatrix.power, []
    monkeypatch.setattr(IntMatrix, "power", lambda m, k: powers.append(k) or power(m, k))
    vectors = ((1, 0, 0), (0, 2, 1), (3, -1, 2))
    els = [g.from_ambient(stage, v) for stage in range(3) for v in vectors]
    for a in els:
        for b in els:
            assert element_equal(element_add(a, b), element_add(b, a))
        assert element_equal(element_add(a, element_negate(a)), g.zero())
    assert len(factored) == len(set(factored))
    assert powers == []


def nilpotent_shift(n: int) -> IntMatrix:
    return IntMatrix(n, n, [1 if j == i + 1 else 0 for i in range(n) for j in range(n)])


@pytest.mark.parametrize(
    "T", [dense_edge_shift(), nilpotent_shift(40)], ids=["edge-shift-56", "nilpotent-40"]
)
def test_construction_stops_at_the_stabilization_index(monkeypatch, T):
    # Forming T^r by repeated squaring gives T^56 entries of thousands of bits here.
    matmul, products = IntMatrix.__matmul__, []
    monkeypatch.setattr(IntMatrix, "power", lambda m, k: pytest.fail("IntMatrix.power called"))
    monkeypatch.setattr(
        IntMatrix, "__matmul__", lambda a, b: products.append(a == T) or matmul(a, b)
    )
    g = StationaryLimitGroup(T)
    monkeypatch.undo()
    # Every pivot of the echelon basis of im T is 1 here, so the span
    # iteration and the restriction run on T written in its pivot rows, and
    # T itself is never multiplied.
    first = solk.intlin.echelon_span(T)
    assert {next(x for x in first.col(j) if x) for j in range(first.cols)} == {1}
    assert g.stabilization_index > 0
    assert g.eventual_basis == solk.intlin.echelon_span(g.eventual_basis)
    assert sum(products) == 0
    for m in (g.eventual_basis, g.reduced_endomorphism):
        assert all(-(2**63) <= x < 2**63 for row in m.to_rows() for x in row)


@pytest.mark.parametrize(
    "T",
    [dense_edge_shift(), nilpotent_shift(40), M([[2, 0, 0], [0, 2, 0], [1, 1, 0]])],
    ids=["edge-shift-56", "nilpotent-40", "pivots-2"],
)
def test_construction_takes_one_echelon_span_per_step(monkeypatch, T):
    # The span the iteration ends on is already echelon; saturating it runs
    # no second elimination.
    spans = count_calls(monkeypatch, solk.intlin, "echelon_span")
    g = StationaryLimitGroup(T)
    assert g.stabilization_index > 0
    assert spans == {"echelon_span": g.stabilization_index + 1}
    monkeypatch.undo()
    assert g.eventual_basis == solk.intlin.saturate_columns(g.eventual_basis)


def test_construction_runs_no_smith_form(monkeypatch):
    # Echelon spans, a saturation modulo the pivots and triangular solves
    # suffice here; no report path takes a Hermite form either.
    factored = count_calls(monkeypatch, solk.intlin, "smith_normal_form")
    g = StationaryLimitGroup(dense_edge_shift())
    assert g.eventual_rank > 0
    assert factored == {"smith_normal_form": 0}


HERMITE_FORMS = ("hermite_normal_form_rows", "kernel_basis")


@pytest.mark.parametrize(
    "build",
    [
        lambda: ktheory_report(parse_presentation(wedge_text(8)), order="lex"),
        lambda: ktheory_report(parse_presentation(wedge_text(8)), order="paper"),
        lambda: StationaryLimitGroup(dense_edge_shift()),
        lambda: StationaryLimitGroup(M([[2, 0, 0], [0, 2, 0], [1, 1, 0]])),
    ],
    ids=["wedge-8-lex", "wedge-8-paper", "edge-shift-56", "pivots-2"],
)
def test_report_and_limit_paths_take_no_hermite_form(monkeypatch, build):
    # The saturations here meet pivots above 1 (wedge 8, pivots-2); they
    # run modulo the pivots, with no Hermite form of a congruence system.
    calls = [count_calls(monkeypatch, solk.intlin, name) for name in HERMITE_FORMS]
    build()
    assert calls == [{name: 0} for name in HERMITE_FORMS]


def test_element_operations_on_an_edge_shift_run_no_smith_form(monkeypatch):
    # Retraction goes through adj(T') and det(T'); from_ambient solves one column.
    g = StationaryLimitGroup(dense_edge_shift())
    factored = count_calls(monkeypatch, solk.intlin, "smith_normal_form")
    rng = random.Random(79)
    els = [
        g.from_ambient(stage, [rng.randint(-2, 2) for _ in range(g.ambient_rank)])
        for stage in range(4)
    ]
    els.append(g.element(3, g.reduced_endomorphism.mul_vector([1] * g.eventual_rank)))
    assert els[-1].stage == 2  # a vector in the image of T' retracts one stage
    for a in els:
        assert element_equal(element_add(a, element_negate(a)), g.zero())
    assert factored == {"smith_normal_form": 0}


def test_group_and_element_survive_pickle_and_deepcopy():
    g = make_limit(M([[2, 0, 0, 0], [0, 2, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0]]))
    a, b = g.from_ambient(1, (1, 0, 3, 1)), g.element(2, (1, 1))
    for h, x, y in (pickle.loads(pickle.dumps((g, a, b))), copy.deepcopy((g, a, b))):
        assert x.group is h and y.group is h and h is not g
        for name in ("ambient_rank", "endomorphism", "stabilization_index", "eventual_rank",
                     "eventual_basis", "reduced_endomorphism"):
            assert getattr(h, name) == getattr(g, name)
        assert (x.stage, x.vector) == (a.stage, a.vector)
        assert h.classify() == g.classify()
        s, t = element_add(x, y), element_add(a, b)
        assert (s.stage, s.vector) == (t.stage, t.vector)
        assert element_equal(h.from_ambient(1, (1, 0, 3, 1)), x)
