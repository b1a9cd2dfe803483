"""Stationary inductive limits of free abelian groups, as first-class values.

lim(Z^r, T) is presented by its eventual lattice L and the restriction T'
of T to L, which is injective.  L is the saturation of the Q-span of im T^k,
k <= r the stabilization index: the first k with rank T^(k+1) == rank T^k.
No power of T is multiplied out.  If T has full rank, L is Z^r and T' is T.
Otherwise im T is written in the pivot rows of its echelon basis E1, where a
multiple M of T restricted to it is d1 x d1, and a basis Y is replaced by the
echelon basis of M Y until its rank stops dropping.  Saturating and
restricting take no Smith form, and no product with T unless a pivot of E1
is not 1.  Every element is represented at some stage s by a vector in the
coordinates of L, with (s, v) identified with (s+1, T'v); adj(T') and
det(T') retract it to its least stage, and a retraction stops at the first
row of adj(T') v that det(T') does not divide.  T' is injective, so that
least-stage representative is unique and elements compare by it.  An
element (``LimitElement``) and a ``Classification`` are ``typing.NamedTuple``s.
"""

from __future__ import annotations

from functools import cached_property
from operator import index, mul
from typing import NamedTuple

from .intlin import (
    IntMatrix,
    NotInvariant,
    _cleared_pivots,
    _saturate_echelon,
    adjugate,
    column_hnf,
    determinant,
    echelon_span,
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
        if endomorphism.rows != endomorphism.cols:
            raise ValueError("endomorphism must be square")
        self.ambient_rank = r = endomorphism.rows
        self.endomorphism = endomorphism
        rank = (span := echelon_span(endomorphism)).cols  # span is E1, the basis of im T
        if rank == r:  # T has full rank: the eventual lattice is Z^r and T' is T
            self.stabilization_index, self.eventual_rank = 0, r
            self.eventual_basis, self.reduced_endomorphism = IntMatrix.identity(r), endomorphism
            return
        # A vector of im T is fixed by its entries in the pivot rows of E1, q_j in column j,
        # so M = L T|im T in those coordinates, L = lcm(q), takes only d1 rows of T.
        pivot_rows, L, scaled = _cleared_pivots(span)
        M = IntMatrix(rank, r, [x for i in pivot_rows for x in endomorphism.row(i)]) @ scaled
        # Echelon bases Y of im M^j until the rank stops dropping; image is M @ Y.
        Y, image, k = IntMatrix.identity(rank), M, 1
        while (nxt := echelon_span(image)).cols < rank:
            Y, rank, k = nxt, nxt.cols, k + 1
            image = M @ Y
        self.stabilization_index, self.eventual_rank = k, rank
        if L == 1:  # E1 carries Z^d1, its echelon bases and Hermite forms into Z^r
            basis = _saturate_echelon(Y)
            self.eventual_basis = span if k == 1 else span @ basis
            reduced = solve_echelon(basis, image if basis is Y else M @ basis)
        else:  # back to Z^r once, through the integral E1 diag(L/q) Y
            basis = _saturate_echelon(span if k == 1 else echelon_span(scaled @ Y))
            self.eventual_basis, reduced = basis, solve_echelon(basis, endomorphism @ basis)
        if reduced is None:
            raise NotInvariant("image of the eventual lattice is not contained in it")
        self.reduced_endomorphism = reduced

    # -- elements ---------------------------------------------------------

    def zero(self) -> "LimitElement":
        return LimitElement(self, 0, (0,) * self.eventual_rank)

    def element(self, stage: int, vector: tuple[int, ...] | list[int]) -> "LimitElement":
        """Element given by a vector in eventual-lattice coordinates at a stage."""
        if stage < 0:
            raise ValueError("stage must be nonnegative")
        vector = tuple(map(index, vector))
        if len(vector) != self.eventual_rank:
            raise ValueError("vector length must equal the eventual rank")
        return self._canonical(stage, vector)

    def from_ambient(self, stage: int, vector: tuple[int, ...] | list[int]) -> "LimitElement":
        """Element represented by an ambient Z^r vector at a stage.

        Pushing forward k more steps, k the stabilization index, lands the
        vector in the eventual lattice, where it is re-expressed in the
        lattice basis.  At k = 0 that basis is the identity.
        """
        if stage < 0:
            raise ValueError("stage must be nonnegative")
        vector = tuple(map(index, vector))
        if len(vector) != self.ambient_rank:
            raise ValueError("vector length must equal the ambient rank")
        if not self.stabilization_index:
            return self._canonical(stage, vector)
        for _ in range(self.stabilization_index):
            vector = self.endomorphism.mul_vector(vector)
        coords = solve_echelon(self.eventual_basis, IntMatrix.column(vector))
        if coords is None:
            raise RuntimeError("pushed vector must lie in the eventual lattice")
        return self._canonical(stage + self.stabilization_index, coords.col(0))

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
    elements are equal exactly when their stages and vectors are.
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
        return column_hnf(gens.hstack(relations))

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
