"""Stationary inductive limits of free abelian groups, as first-class values.

lim(Z^r, T) is presented by its eventual lattice L and the restriction T'
of T to L, which is injective (``intlin.eventual_lattice``).  Every element
is represented at some stage s by a vector in the coordinates of L, with
(s, v) identified with (s+1, T'v); adj(T') and det(T') retract it to its
least stage, and a retraction stops at the first row of adj(T') v that
det(T') does not divide.  T' is injective, so that least-stage
representative is unique and elements compare by it.  An element
(``LimitElement``) and a ``Classification`` are ``typing.NamedTuple``s.
"""

from __future__ import annotations

from functools import cached_property
from operator import index, mul
from typing import NamedTuple

from .intlin import (
    IntMatrix,
    adjugate,
    column_hnf,
    determinant,
    eventual_lattice,
    smith_normal_form,
    solve_echelon,
)


class Classification(NamedTuple):
    """Stable descriptor of a stationary limit group."""

    kind: str  # "free_abelian" | "z_one_over" | "generic"
    rank: int
    n: int | None = None
    presentation: tuple[tuple[int, ...], ...] | None = None

    def __str__(self) -> str:
        if self.kind == "free_abelian":
            return f"FreeAbelian({self.rank})"
        if self.kind == "z_one_over":
            return f"ZOneOver({self.n})"
        rows = [list(r) for r in self.presentation or ()]
        return f"Generic(rank={self.rank}, matrix={rows})"


class StationaryLimitGroup:
    """lim(Z^r, T) with element arithmetic.

    Immutable after construction; elements are value objects tied to their
    group.
    """

    def __init__(self, endomorphism: IntMatrix):
        k, basis, reduced = eventual_lattice(endomorphism)
        self.ambient_rank, self.endomorphism = endomorphism.rows, endomorphism
        self.stabilization_index, self.eventual_rank = k, basis.cols
        self.eventual_basis, self.reduced_endomorphism = basis, reduced

    # -- elements ---------------------------------------------------------

    def zero(self) -> "LimitElement":
        return LimitElement(self, 0, (0,) * self.eventual_rank)

    def element(self, stage: int, vector: tuple[int, ...] | list[int]) -> "LimitElement":
        """Element given by a vector in eventual-lattice coordinates at a stage."""
        return self._canonical(*self._checked(stage, vector, self.eventual_rank, "eventual"))

    def from_ambient(self, stage: int, vector: tuple[int, ...] | list[int]) -> "LimitElement":
        """Element represented by an ambient Z^r vector at a stage.

        Pushing forward k more steps, k the stabilization index, lands the
        vector in the eventual lattice, where it is re-expressed in the
        lattice basis.  At k = 0 that basis is the identity.
        """
        stage, vector = self._checked(stage, vector, self.ambient_rank, "ambient")
        if not self.stabilization_index:
            return self._canonical(stage, vector)
        for _ in range(self.stabilization_index):
            vector = self.endomorphism.mul_vector(vector)
        coords = solve_echelon(self.eventual_basis, IntMatrix.column(vector))
        if coords is None:
            raise RuntimeError("pushed vector must lie in the eventual lattice")
        return self._canonical(stage + self.stabilization_index, coords.col(0))

    @staticmethod
    def _checked(stage, vector, rank: int, lattice: str) -> tuple[int, tuple[int, ...]]:
        # operator.index: a float or str stage, like such an entry, raises TypeError
        if (stage := index(stage)) < 0:
            raise ValueError("stage must be nonnegative")
        if len(vector := tuple(map(index, vector))) != rank:
            raise ValueError(f"vector length must equal the {lattice} rank")
        return stage, vector

    @cached_property
    def _adjugate(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        adj, det = adjugate(self.reduced_endomorphism)
        return tuple(map(adj.row, range(adj.rows))), det

    @cached_property
    def _rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(self.reduced_endomorphism.row, range(self.eventual_rank)))

    def _canonical(self, stage: int, vector: tuple[int, ...] | list[int]) -> "LimitElement":
        # Minimal stage: retract through T' while the vector stays integral;
        # v is in im T' exactly when adj(T') v == 0 mod det(T'), read a row at a time.
        adj, det = self._adjugate
        while stage > 0:
            pre = []
            for row in adj:
                x = sum(map(mul, row, vector))
                if x % det:
                    return LimitElement(self, stage, tuple(vector))
                pre.append(x // det)
            vector, stage = pre, stage - 1
        return LimitElement(self, stage, tuple(vector))

    def _promote(self, el: "LimitElement", stage: int) -> tuple[int, ...] | list[int]:
        v = el.vector
        for _ in range(stage - el.stage):
            v = [sum(map(mul, row, v)) for row in self._rows]
        return v

    def classify(self) -> Classification:
        """The classification of the limit, computed once per group."""
        return self._classification

    @cached_property
    def _classification(self) -> Classification:
        t = self.reduced_endomorphism
        r = self.eventual_rank
        det = determinant(t)
        if abs(det) == 1:
            return Classification(kind="free_abelian", rank=r)
        if r == 1 and abs(t[0, 0]) >= 2:
            return Classification(kind="z_one_over", rank=1, n=abs(t[0, 0]))
        return Classification(
            kind="generic", rank=r, presentation=tuple(tuple(row) for row in t.to_rows())
        )

    def __repr__(self) -> str:
        return (
            f"StationaryLimitGroup(ambient_rank={self.ambient_rank}, "
            f"eventual_rank={self.eventual_rank}, classify={self.classify()})"
        )


class LimitElement(NamedTuple):
    """Canonical representative (stage, vector): stage 0 or vector not in im T'.

    T' is injective, so this least-stage representative is unique and two
    elements are equal exactly when their stages and vectors are.  Elements
    come from ``element``, ``from_ambient``, ``zero`` and the operations; a
    hand-built ``LimitElement(...)`` is taken as canonical unchecked, so
    ``element_equal`` can misjudge it.
    """

    group: StationaryLimitGroup
    stage: int
    vector: tuple[int, ...]


def make_limit(T: IntMatrix) -> StationaryLimitGroup:
    return StationaryLimitGroup(T)


def element_equal(a: LimitElement, b: LimitElement) -> bool:
    if a.group is not b.group:
        raise ValueError("elements of different groups")
    return a.stage == b.stage and a.vector == b.vector


def element_add(a: LimitElement, b: LimitElement) -> LimitElement:
    if a.group is not b.group:
        raise ValueError("elements of different groups")
    g, m = a.group, max(a.stage, b.stage)
    return g._canonical(m, [x + y for x, y in zip(g._promote(a, m), g._promote(b, m))])


def element_negate(a: LimitElement) -> LimitElement:
    # adj(T')(-v) is divisible by det(T') exactly when adj(T') v is: -v stays canonical.
    return LimitElement(a.group, a.stage, tuple([-x for x in a.vector]))


def element_positive(a: LimitElement) -> bool:
    """Strict positivity, defined for rank-one limits with a positive
    connecting number (the Z[1/n] case): the element is a rational v / n^k
    and its sign is the sign of v.
    """
    g = a.group
    if g.eventual_rank != 1 or g.reduced_endomorphism[0, 0] <= 0:
        raise ValueError("order structure is only defined for Z[1/n]-type limits")
    return a.vector[0] > 0


def classify(group: StationaryLimitGroup) -> Classification:
    return group.classify()


def stationary_torsion_limit(moduli: tuple[int, ...], endo: IntMatrix) -> tuple[int, ...]:
    """Invariant factors of the stationary limit of a finite abelian group.

    The group is the direct sum of Z/m for m in moduli (each m > 1) and the
    endomorphism is given by an integer matrix in those coordinates.  The
    limit is isomorphic to the eventual image, reached after finitely many
    iterations.
    """
    s = len(moduli)
    if endo.shape != (s, s):
        raise ValueError("endomorphism shape must match the moduli")
    if any(m <= 1 for m in moduli):
        raise ValueError("moduli must all exceed 1")
    relations = IntMatrix(s, s, [moduli[i] if i == j else 0 for i in range(s) for j in range(s)])

    def subgroup_lattice(gens: IntMatrix) -> IntMatrix:
        return column_hnf(IntMatrix.from_rows([gens.row(i) + relations.row(i) for i in range(s)]))

    current = subgroup_lattice(IntMatrix.identity(s))
    while True:
        nxt = subgroup_lattice(endo @ current)
        if nxt == current:
            break
        current = nxt

    # Structure of (lattice of the eventual image) / (relations lattice).
    coords = solve_echelon(current, relations)
    if coords is None:
        raise RuntimeError("relations lattice must sit inside the image lattice")
    return smith_normal_form(coords).cokernel().torsion
