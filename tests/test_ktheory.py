import functools

import pytest

import solk.germs
import solk.intlin
import solk.ktheory
import solk.limits
import solk.model
from solk.germs import occurring_classes, quotient_summary
from solk.intlin import IntMatrix, NotInvariant, rank, same_column_lattice
from solk.ktheory import (
    InvalidPresentation,
    NotWellDefined,
    boundary_matrix,
    first_edge_matrix,
    k_theory_of_g0,
    ktheory_report,
    psi_star_k0,
    psi_star_k1,
    trace_pullback_matrix,
    with_class_order,
)
from solk.model import parse_presentation

from helpers import (
    DOUBLING_TEXT,
    THUE_MORSE_TEXT,
    TWO_VERTEX_TEXT,
    aabab,
    count_calls,
    fibonacci,
    n_solenoid,
    random_valid_presentations,
    record_calls,
    wedge_text,
)
from oracles import edge_trace_row

ALPHA_BETA = IntMatrix.from_rows([[1, 0], [1, 0], [0, 1]])  # the (1,1,0), (0,0,1) lattice basis


def paper_model(p):
    return with_class_order(occurring_classes(p), "paper")


def lex_model(p):
    return occurring_classes(p)


def test_boundary_matrix_aabab_paper_order():
    p = aabab()
    m = paper_model(p)
    assert [(c.in_edge, c.out_edge) for c in m.classes] == [("b", "a"), ("a", "b"), ("a", "a")]
    assert boundary_matrix(p, m).to_rows() == [[-1, 1, 0], [1, -1, 0]]


def test_boundary_matrix_n_solenoid_zero():
    p = n_solenoid(4)
    m = lex_model(p)
    assert boundary_matrix(p, m).to_rows() == [[0]]


def test_boundary_matrix_fibonacci_lex_order():
    p = fibonacci()
    m = lex_model(p)
    assert [(c.in_edge, c.out_edge) for c in m.classes] == [("a", "a"), ("a", "b"), ("b", "a")]
    assert boundary_matrix(p, m).to_rows() == [[0, 1, -1], [0, -1, 1]]


def test_edge_trace_rows_aabab():
    p = aabab()
    m = paper_model(p)
    assert edge_trace_row(p, m, "a") == (1, 0, 1)  # tau_ba + tau_aa
    assert edge_trace_row(p, m, "b") == (0, 1, 0)  # tau_ab


def test_edge_trace_row_n_solenoid():
    p = n_solenoid(2)
    assert edge_trace_row(p, lex_model(p), "a") == (1,)


def test_trace_pullback_aabab():
    p = aabab()
    assert trace_pullback_matrix(p, paper_model(p)).to_rows() == [
        [1, 1, 1],
        [1, 1, 1],
        [1, 0, 1],
    ]


def test_trace_pullback_n_solenoid():
    for n in (2, 5):
        p = n_solenoid(n)
        assert trace_pullback_matrix(p, lex_model(p)).to_rows() == [[n]]


def test_trace_pullback_fibonacci_paper_order():
    p = fibonacci()
    assert trace_pullback_matrix(p, paper_model(p)).to_rows() == [
        [0, 1, 1],
        [1, 0, 1],
        [1, 0, 0],
    ]


def test_k_theory_of_g0_examples():
    p = aabab()
    basis, k1_rank = k_theory_of_g0(p, paper_model(p))
    assert basis.cols == 2 and k1_rank == 1
    p = n_solenoid(3)
    basis, k1_rank = k_theory_of_g0(p, lex_model(p))
    assert basis.cols == 1 and k1_rank == 1
    p = fibonacci()
    basis, k1_rank = k_theory_of_g0(p, lex_model(p))
    assert basis.cols == 2 and k1_rank == 1


def test_psi0_aabab_paper_basis():
    p = aabab()
    m = paper_model(p)
    basis, _ = k_theory_of_g0(p, m)
    assert same_column_lattice(basis, ALPHA_BETA)
    assert psi_star_k0(p, m).to_rows() == [[2, 1], [1, 1]]


def test_psi0_n_solenoid():
    for n in (2, 6):
        p = n_solenoid(n)
        assert psi_star_k0(p, lex_model(p)).to_rows() == [[n]]


def test_psi0_fibonacci_paper_basis():
    p = fibonacci()
    assert psi_star_k0(p, paper_model(p)).to_rows() == [[1, 1], [1, 0]]


def test_psi1_identity_on_examples():
    for p in (aabab(), fibonacci(), n_solenoid(2), n_solenoid(5)):
        m = lex_model(p)
        assert psi_star_k1(p, m).to_rows() == [[1]]


def test_first_edge_matrix():
    assert first_edge_matrix(aabab()).to_rows() == [[1, 1], [0, 0]]
    assert first_edge_matrix(fibonacci()).to_rows() == [[1, 1], [0, 0]]


def test_report_aabab():
    r = ktheory_report(aabab(), order="paper")
    assert r.delta0.to_rows() == [[-1, 1, 0], [1, -1, 0]]
    assert r.k0_basis == ALPHA_BETA
    assert r.psi0.to_rows() == [[2, 1], [1, 1]]
    assert str(r.k0_limit.classify()) == "FreeAbelian(2)"
    assert r.psi1 == IntMatrix.identity(1)
    assert str(r.k1_limit.classify()) == "FreeAbelian(1)"
    assert not r.summary.hausdorff and r.summary.connected and r.summary.degree is None
    assert r.summary.nuclear_dimension_bound == 1
    assert r.zn_target is None


def test_report_n_solenoid():
    for n in range(2, 7):
        r = ktheory_report(n_solenoid(n))
        assert len(r.model.classes) == 1
        assert r.delta0.to_rows() == [[0]]
        assert r.psi0.to_rows() == [[n]]
        assert str(r.k0_limit.classify()) == f"ZOneOver({n})"
        assert r.psi1 == IntMatrix.identity(1)
        assert str(r.k1_limit.classify()) == "FreeAbelian(1)"
        assert r.summary.degree == n
        assert r.zn_target == f"Z[1/{n}]"


def test_report_doubling_cover():
    r = ktheory_report(parse_presentation(DOUBLING_TEXT))
    assert str(r.k0_limit.classify()) == "ZOneOver(2)"
    assert r.summary.degree == 2


def test_report_two_vertex_cover():
    r = ktheory_report(parse_presentation(TWO_VERTEX_TEXT))
    assert str(r.k0_limit.classify()) == "ZOneOver(3)"
    assert r.summary.degree == 3
    assert r.zn_target == "Z[1/3]"


def test_report_thue_morse():
    # All four two-blocks occur; the K0 limit reduces to rank 2 with a
    # presentation matrix of eigenvalues 2 and -1 (hand-derived: the kernel
    # of the boundary map is spanned by e_aa, e_ab + e_ba, e_bb, and the
    # pullback acts by u1 -> u2, u2 -> u1 + u2 + u3, u3 -> u2).
    r = ktheory_report(parse_presentation(THUE_MORSE_TEXT))
    assert r.psi0.to_rows() == [[0, 1, 0], [1, 1, 1], [0, 1, 0]]
    assert r.k0_limit.eventual_rank == 2
    assert r.k0_limit.reduced_endomorphism.to_rows() == [[0, 1], [2, 1]]
    assert r.k0_limit.classify().kind == "generic"
    assert not r.summary.hausdorff
    assert r.psi1 == IntMatrix.identity(1)


def test_report_model_is_its_summary_model_in_the_report_order():
    for p in corpus():
        for order in ("lex", "paper"):
            r = ktheory_report(p, order=order)
            assert r.order == order
            assert r.model == with_class_order(r.summary.model, order)
    with pytest.raises(ValueError, match="unknown order 'rev'"):
        with_class_order(lex_model(aabab()), "rev")


def test_report_summary_equals_a_fresh_quotient_summary():
    for p in corpus():
        assert ktheory_report(p).summary == quotient_summary(p)


def test_report_rejects_invalid_presentation():
    p = parse_presentation("solenoid v1\nvertex p\nedge a p p\nmap a -> a\n")
    with pytest.raises(ValueError, match="fails validation"):
        ktheory_report(p)


def test_invalid_presentation_carries_the_validation_report():
    p = parse_presentation("solenoid v1\nvertex p\nedge a p p\nmap a -> a\n")
    with pytest.raises(InvalidPresentation) as exc:
        ktheory_report(p)
    assert not exc.value.report.ok
    assert {f.code for f in exc.value.report.errors()} == {"homeomorphism", "not-expanding"}


def test_report_runs_closure_and_validation_once(monkeypatch):
    closure = count_calls(monkeypatch, solk.germs, "occurring_classes")
    validation = count_calls(monkeypatch, solk.model, "validate")
    ktheory_report(aabab(), order="paper")
    assert closure == {"occurring_classes": 1}
    assert validation == {"validate": 1}


def test_psi1_rejects_a_rule_that_does_not_descend(monkeypatch):
    # Sending b to 0 carries the boundary column e_a - e_b to e_a, which is
    # not in the boundary image of aabab.
    p = aabab()
    m = lex_model(p)
    monkeypatch.setattr(
        solk.ktheory, "first_edge_matrix", lambda p: IntMatrix.from_rows([[1, 0], [0, 0]])
    )
    with pytest.raises(NotWellDefined):
        psi_star_k1(p, m)


def test_report_exactness_checks_raise(monkeypatch):
    # Real errors, not asserts: they must also fire under python -O.
    with monkeypatch.context() as m:
        m.setattr(solk.ktheory, "rank", lambda A: rank(A) + 1)
        with pytest.raises(RuntimeError, match="number of classes"):
            ktheory_report(aabab())
    # One generator too many in K1 leaves the class count right and the edge count wrong.
    monkeypatch.setattr(
        solk.ktheory, "psi_star_k1", lambda p, m: IntMatrix.identity(psi_star_k1(p, m).rows + 1)
    )
    with pytest.raises(RuntimeError, match="number of edges"):
        ktheory_report(aabab())


def corpus():
    return [
        aabab(),
        fibonacci(),
        n_solenoid(2),
        n_solenoid(4),
        parse_presentation(DOUBLING_TEXT),
        parse_presentation(THUE_MORSE_TEXT),
        parse_presentation(TWO_VERTEX_TEXT),
    ] + random_valid_presentations(seed=501, count=25)


def test_exactness_bookkeeping():
    for p in corpus():
        m = lex_model(p)
        delta0 = boundary_matrix(p, m)
        basis, k1_rank = k_theory_of_g0(p, m)
        r = rank(delta0)
        assert r + basis.cols == len(m.classes)
        assert r + k1_rank == len(p.graph.edge_names())


def test_kernel_invariance_and_psi1_well_defined():
    for p in corpus():
        m = lex_model(p)
        psi_star_k0(p, m)  # raises NotInvariant on failure
        psi_star_k1(p, m)  # raises NotWellDefined on failure


@pytest.mark.parametrize("table", ["gtilde", "interior_preimage_table"])
def test_psi0_rejects_a_redirected_class_map_entry(table):
    # aabab (lex): a|b -> b|a with interior preimages (a, 2) and (b, 1).  Sending
    # a|b to a|a, or its (b, 1) preimage to (a, 1), breaks P @ K0 in ker delta0.
    p = aabab()
    m = lex_model(p)
    ab = next(i for i, c in enumerate(m.classes) if c.label() == "a|b@p")
    entries = list(getattr(m, table))
    entries[ab] = 0 if table == "gtilde" else (("a", 2), ("a", 1))
    mutated = m._replace(**{table: entries})
    psi_star_k0(p, m)
    with pytest.raises(NotInvariant):
        psi_star_k0(p, mutated)


def test_trace_consistency_on_kernel():
    # Out-dart and in-dart limit rows of each edge agree as functionals on
    # the kernel of the boundary matrix.
    for p in corpus():
        m = lex_model(p)
        basis, _ = k_theory_of_g0(p, m)
        for e in p.graph.edge_names():
            out_row = edge_trace_row(p, m, e)
            tgt = p.graph.edge(e).target
            in_row = tuple(
                1 if (c.vertex == tgt and c.in_edge == e) else 0 for c in m.classes
            )
            diff = [a - b for a, b in zip(out_row, in_row)]
            for j in range(basis.cols):
                col = basis.col(j)
                assert sum(d * x for d, x in zip(diff, col)) == 0


def test_hausdorff_connected_trace_scaling():
    # tau(psi(a)) = n * tau(a) on the kernel when Hausdorff and connected.
    for p in corpus():
        r = ktheory_report(p)
        if not (r.summary.hausdorff and r.summary.connected):
            continue
        n = r.summary.degree
        pullback = trace_pullback_matrix(p, r.model)
        ones = [1] * len(r.model.classes)
        lhs = [sum(ones[i] * pullback[i, j] for i in range(pullback.rows)) for j in range(pullback.cols)]
        diff = [a - n * b for a, b in zip(lhs, ones)]
        for j in range(r.k0_basis.cols):
            col = r.k0_basis.col(j)
            assert sum(d * x for d, x in zip(diff, col)) == 0


def test_report_matrices_are_integer_valued():
    # All report data are Python ints by construction; spot-check types.
    p = aabab()
    r = ktheory_report(p)
    for mat in (r.delta0, trace_pullback_matrix(p, r.model), r.k0_basis, r.psi0, r.psi1):
        assert all(isinstance(x, int) for row in mat.to_rows() for x in row)


def test_report_factors_delta0_once_plus_the_rank_check(monkeypatch):
    factored = record_calls(monkeypatch, solk.intlin, "smith_normal_form")
    ktheory_report(aabab())
    # K0, K1 and psi1 come from the class graph; the exactness check's
    # rank(delta0) comes from Bareiss elimination.
    assert factored == []


def test_exactness_check_runs_no_second_smith_form(monkeypatch):
    factored = record_calls(monkeypatch, solk.intlin, "smith_normal_form")
    ktheory_report(aabab())
    assert factored == []


def test_report_factors_only_delta0(monkeypatch):
    # K0 comes from a spanning forest, K1 and psi1 from the components of the
    # class graph, and the limits from echelon spans and saturations modulo the pivots:
    # a report factors no matrix, delta0 included.
    factored = record_calls(monkeypatch, solk.intlin, "smith_normal_form")
    inverted = count_calls(monkeypatch, solk.intlin, "invert_unimodular")
    torsion = count_calls(monkeypatch, solk.limits, "stationary_torsion_limit")
    ktheory_report(parse_presentation(wedge_text(8)))
    assert factored == []
    assert inverted == {"invert_unimodular": 0}
    assert torsion == {"stationary_torsion_limit": 0}


def test_wedge_24_report_keeps_normal_form_entries_small(monkeypatch):
    """One vertex, 24 loops: unreduced Hermite elimination stalled here on entry growth."""
    largest = 0
    xgcd = solk.intlin.xgcd

    def recorded(a, b):
        nonlocal largest
        largest = max(largest, abs(a).bit_length(), abs(b).bit_length())
        return xgcd(a, b)

    monkeypatch.setattr(solk.intlin, "xgcd", recorded)
    r = ktheory_report(parse_presentation(wedge_text(24)))
    assert r.k0_limit.eventual_rank > 0
    assert all(abs(x).bit_length() < 64 for x in r.k0_limit.eventual_basis._entries)
    assert 0 < largest < 64  # every pivot merge in the Hermite kernel stays within a word


@pytest.mark.parametrize("order", ["lex", "paper"])
def test_report_computes_class_graph_components_once(monkeypatch, order):
    # quotient_summary reads them for `connected` and the report for K1; the
    # reordered model computes its own, once.
    components, models = solk.germs.QuotientModel.__dict__["edge_components"].func, []
    counted = functools.cached_property(lambda m: models.append(m) or components(m))
    counted.__set_name__(solk.germs.QuotientModel, "edge_components")
    monkeypatch.setattr(solk.germs.QuotientModel, "edge_components", counted)
    r = ktheory_report(parse_presentation(TWO_VERTEX_TEXT), order=order)
    assert len(models) == {"lex": 1, "paper": 2}[order]
    assert len(set(map(id, models))) == len(models)
    assert r.model.edge_components == r.summary.model.edge_components
    assert r.psi1.rows == len(set(r.model.edge_components))
