"""Dimension-group style invariant for one-sided subshifts of finite type.

For a shift with nonnegative transition matrix A, the level-1 cylinder
lattice Z^states carries the preimage-summing transfer map, whose matrix
on indicator vectors is the transpose of A.  K0 of the limit algebra is
the stationary limit of that system; K1 vanishes because the shift space
is totally disconnected.  Validation warns when A is reducible, which is
when I + A is not primitive.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intlin import IntMatrix
from .limits import Classification, StationaryLimitGroup, make_limit
from .model import Finding, ValidationReport, _is_primitive


@dataclass(frozen=True)
class SftPresentation:
    states: tuple[str, ...]
    adjacency: IntMatrix

    def __post_init__(self):
        if self.adjacency.shape != (len(self.states), len(self.states)):
            raise ValueError("adjacency must be square over the states")

    @staticmethod
    def from_matrix(rows: list[list[int]]) -> "SftPresentation":
        states = tuple(str(i) for i in range(len(rows)))
        return SftPresentation(states=states, adjacency=IntMatrix.from_rows(rows, cols=len(rows)))


def validate_sft(s: SftPresentation) -> ValidationReport:
    """Nonnegativity, no dead states, and an irreducibility warning."""
    findings: list[Finding] = []
    A = s.adjacency
    n = A.rows
    for i in range(n):
        for j in range(n):
            if A[i, j] < 0:
                findings.append(
                    Finding("error", "negative-entry", f"entry ({i},{j}) is negative")
                )
    for i in range(n):
        if all(A[i, j] == 0 for j in range(n)):
            findings.append(
                Finding("error", "dead-state", f"state '{s.states[i]}' has no outgoing transition")
            )
        if all(A[j, i] == 0 for j in range(n)):
            findings.append(
                Finding("error", "dead-state", f"state '{s.states[i]}' has no incoming transition")
            )
    # Every finding so far is an error; irreducibility is checked only without one.
    if not findings and not _is_primitive(A + IntMatrix.identity(n)):
        findings.append(
            Finding("warning", "reducible", "transition graph is not strongly connected")
        )
    return ValidationReport(tuple(findings))


@dataclass(frozen=True)
class SftDimensionGroup:
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
    edges: list[tuple[int, int, int]] = []
    for i in range(A.rows):
        for j in range(A.cols):
            for k in range(A[i, j]):
                edges.append((i, j, k))
    n = len(edges)
    leaving = [[0] * n for _ in range(A.rows)]  # the row of a state: the edges leaving it
    for b, (i, _, _) in enumerate(edges):
        leaving[i][b] = 1
    states = tuple(f"{s.states[i]}>{s.states[j]}#{k}" for i, j, k in edges)
    rows = [leaving[j] for _, j, _ in edges]  # an edge's row is the row of its target
    return SftPresentation(states=states, adjacency=IntMatrix.from_rows(rows, cols=n))
