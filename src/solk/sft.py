"""Dimension-group style invariant for one-sided subshifts of finite type.

For a shift with nonnegative transition matrix A, the level-1 cylinder
lattice Z^states carries the preimage-summing transfer map, whose matrix
on indicator vectors is the transpose of A.  K0 of the limit algebra is
the stationary limit of that system; K1 vanishes because the shift space
is totally disconnected.  Validation warns when A is reducible, which is
when I + A is not primitive.  Both records are ``typing.NamedTuple``s.
"""

from __future__ import annotations

from typing import NamedTuple

from .intlin import IntMatrix
from .limits import Classification, StationaryLimitGroup, make_limit
from .model import Finding, ValidationReport, _Checked, _is_primitive


class _SftFields(NamedTuple):
    states: tuple[str, ...]
    adjacency: IntMatrix


class SftPresentation(_Checked, _SftFields):
    def __new__(cls, states: tuple[str, ...], adjacency: IntMatrix):
        if adjacency.shape != (len(states), len(states)):
            raise ValueError("adjacency must be square over the states")
        return super().__new__(cls, states, adjacency)

    @staticmethod
    def from_matrix(rows: list[list[int]]) -> "SftPresentation":
        states = tuple(str(i) for i in range(len(rows)))
        return SftPresentation(states=states, adjacency=IntMatrix.from_rows(rows, cols=len(rows)))


def validate_sft(s: SftPresentation) -> ValidationReport:
    """Nonnegativity, no dead states, and an irreducibility warning."""
    A, n = s.adjacency, s.adjacency.rows
    findings: list[Finding] = []  # the negative entries, row by row, then the dead states
    dead: list[Finding] = []
    # Row i of A holds the transitions leaving state i, row i of its transpose those entering.
    for i, (out, into) in enumerate(zip(map(A.row, range(n)), map(A.transpose().row, range(n)))):
        findings += [
            Finding("error", "negative-entry", f"entry ({i},{j}) is negative")
            for j, x in enumerate(out) if x < 0
        ]
        for word, row in (("outgoing", out), ("incoming", into)):
            if not any(row):
                message = f"state '{s.states[i]}' has no {word} transition"
                dead.append(Finding("error", "dead-state", message))
    findings += dead
    # Every finding so far is an error; irreducibility is checked only without one.
    if not findings and not _is_primitive(A + IntMatrix.identity(n)):
        findings.append(
            Finding("warning", "reducible", "transition graph is not strongly connected")
        )
    return ValidationReport(tuple(findings))


class SftDimensionGroup(NamedTuple):
    k0: StationaryLimitGroup
    k0_classification: Classification
    k1: str  # always "trivial"


def sft_dimension_group(s: SftPresentation) -> SftDimensionGroup:
    """K0 as the stationary limit of the transfer map; K1 is trivial."""
    k0 = make_limit(s.adjacency.transpose())
    return SftDimensionGroup(k0=k0, k0_classification=k0.classify(), k1="trivial")


def edge_shift(s: SftPresentation) -> SftPresentation:
    """Recode to the edge shift: one state per transition of the original.

    Entry A[i][j] = m contributes m parallel transitions from i to j.  The
    recoding is conjugate to the original shift, so it must produce the
    same classification; it serves as a consistency oracle for the
    transfer-map convention.
    """
    A = s.adjacency
    edges = [(i, j, k) for i in range(A.rows) for j, m in enumerate(A.row(i)) for k in range(m)]
    n = len(edges)
    leaving = [[0] * n for _ in range(A.rows)]  # the row of a state: the edges leaving it
    for b, (i, _, _) in enumerate(edges):
        leaving[i][b] = 1
    states = tuple(f"{s.states[i]}>{s.states[j]}#{k}" for i, j, k in edges)
    rows = [leaving[j] for _, j, _ in edges]  # an edge's row is the row of its target
    return SftPresentation(states=states, adjacency=IntMatrix.from_rows(rows, cols=n))
