import random

import pytest

from solk.intlin import IntMatrix
from solk.model import Finding
from solk.sft import SftPresentation, edge_shift, sft_dimension_group, validate_sft


def S(rows):
    return SftPresentation.from_matrix(rows)


def test_validate_full_two_shift():
    report = validate_sft(S([[1, 1], [1, 1]]))
    assert report.ok and not report.warnings()


def test_validate_golden_mean_irreducible():
    report = validate_sft(S([[1, 1], [1, 0]]))
    assert report.ok and not report.warnings()
    # A^2 > 0 directly.
    a = IntMatrix.from_rows([[1, 1], [1, 0]])
    assert all(x > 0 for row in (a @ a).to_rows() for x in row)


def test_validate_identity_reducible_warning():
    report = validate_sft(S([[1, 0], [0, 1]]))
    assert report.ok
    assert report.warnings() == (
        Finding("warning", "reducible", "transition graph is not strongly connected"),
    )


def test_validate_negative_entry_and_dead_state():
    report = validate_sft(S([[1, -1], [1, 1]]))
    assert any(f.code == "negative-entry" for f in report.errors())
    report = validate_sft(S([[1, 1], [0, 0]]))
    assert any(f.code == "dead-state" for f in report.errors())
    # The negative entries row by row, then the dead states: for each state,
    # outgoing before incoming.  State 1 has neither, state 3 no incoming.
    report = validate_sft(S([[1, 0, -1, 0], [0, 0, 0, 0], [-2, 0, 1, 0], [1, 0, 1, 0]]))
    assert report.findings == (
        Finding("error", "negative-entry", "entry (0,2) is negative"),
        Finding("error", "negative-entry", "entry (2,0) is negative"),
        Finding("error", "dead-state", "state '1' has no outgoing transition"),
        Finding("error", "dead-state", "state '1' has no incoming transition"),
        Finding("error", "dead-state", "state '3' has no incoming transition"),
    )


def test_dimension_group_full_shifts():
    for n in (2, 3, 5):
        dg = sft_dimension_group(S([[n]]))
        assert str(dg.k0_classification) == f"ZOneOver({n})"
        assert dg.k1 == "trivial"
    dg = sft_dimension_group(S([[1, 1], [1, 1]]))
    assert str(dg.k0_classification) == "ZOneOver(2)"


def test_dimension_group_golden_mean():
    dg = sft_dimension_group(S([[1, 1], [1, 0]]))
    assert str(dg.k0_classification) == "FreeAbelian(2)"


def test_dimension_group_uses_transpose():
    # Asymmetric matrix where the transfer convention matters: the limit of
    # A^T and of A agree abstractly here only because they are conjugate;
    # the pinned convention is A^T acting on cylinder indicators.
    dg = sft_dimension_group(S([[2, 1], [0, 1]]))
    g = dg.k0
    assert g.endomorphism == IntMatrix.from_rows([[2, 0], [1, 1]])


def test_edge_shift_recoding_shapes():
    e = edge_shift(S([[1, 1], [1, 1]]))
    assert len(e.states) == 4
    assert e.adjacency.rows == 4
    e = edge_shift(S([[2]]))  # multiplicity expands into parallel edges
    assert len(e.states) == 2
    assert e.adjacency.to_rows() == [[1, 1], [1, 1]]


def test_edge_shift_preserves_classification():
    for rows in ([[1, 1], [1, 1]], [[1, 1], [1, 0]], [[2]], [[3]], [[5]], [[2, 1], [1, 1]]):
        s = S(rows)
        assert str(sft_dimension_group(s).k0_classification) == str(
            sft_dimension_group(edge_shift(s)).k0_classification
        )


def test_relabeling_invariance():
    rng = random.Random(314)
    mats = [[[1, 1], [1, 1]], [[1, 1], [1, 0]], [[0, 1, 1], [1, 0, 1], [1, 1, 0]]]
    for rows in mats:
        n = len(rows)
        base = str(sft_dimension_group(S(rows)).k0_classification)
        for _ in range(6):
            perm = list(range(n))
            rng.shuffle(perm)
            permuted = [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
            assert str(sft_dimension_group(S(permuted)).k0_classification) == base


def test_sft_presentation_shape_check():
    with pytest.raises(ValueError):
        SftPresentation(states=("a",), adjacency=IntMatrix.from_rows([[1, 1], [1, 1]]))
