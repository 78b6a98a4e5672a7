"""Bounded distributive lattices as semirings (the class ``Chom``).

Naaf (Prop. 3.1.8, cited in Section 4 of the paper) shows that the
absorptive ⊗-idempotent semirings -- the class ``Chom`` for which the
paper proves its strongest boundedness characterizations -- are exactly
the bounded distributive lattices with ``⊕ = join`` and ``⊗ = meet``.

This module provides three concrete families plus a generic finite
lattice driven by an explicit partial order:

* :class:`SubsetLatticeSemiring` -- ``(2^U, ∪, ∩, ∅, U)``.
* :class:`DivisibilityLatticeSemiring` -- divisors of a squarefree
  ``n`` under ``lcm``/``gcd``.
* :class:`ChainLatticeSemiring` -- a finite total order ``0 < 1 < ...``
  under ``max``/``min``.
* :class:`FiniteLatticeSemiring` -- any finite bounded distributive
  lattice given by its Hasse data (joins/meets computed by search).
"""

from __future__ import annotations

import math
from typing import FrozenSet, Hashable, Iterable, Mapping, Sequence

from .base import Semiring

__all__ = [
    "SubsetLatticeSemiring",
    "DivisibilityLatticeSemiring",
    "ChainLatticeSemiring",
    "FiniteLatticeSemiring",
]


class SubsetLatticeSemiring(Semiring[FrozenSet[Hashable]]):
    """The powerset lattice ``(2^U, ∪, ∩, ∅, U)`` of a finite universe.

    ``⊕`` is union (join) and ``⊗`` is intersection (meet).  Absorptive
    because ``U ∪ X = U``, and ⊗-idempotent because ``X ∩ X = X``.
    """

    name = "subset-lattice"
    idempotent_add = True
    idempotent_mul = True
    absorptive = True

    def __init__(self, universe: Iterable[Hashable]):
        self._universe = frozenset(universe)

    @property
    def universe(self) -> FrozenSet[Hashable]:
        return self._universe

    @property
    def zero(self) -> FrozenSet[Hashable]:
        return frozenset()

    @property
    def one(self) -> FrozenSet[Hashable]:
        return self._universe

    def add(self, a: FrozenSet[Hashable], b: FrozenSet[Hashable]) -> FrozenSet[Hashable]:
        return a | b

    def mul(self, a: FrozenSet[Hashable], b: FrozenSet[Hashable]) -> FrozenSet[Hashable]:
        return a & b

    def element(self, *members: Hashable) -> FrozenSet[Hashable]:
        """Build a lattice element, validating membership in ``U``."""
        value = frozenset(members)
        if not value <= self._universe:
            raise ValueError(f"{value - self._universe} not in lattice universe")
        return value


class DivisibilityLatticeSemiring(Semiring[int]):
    """Divisors of a squarefree ``n`` under ``(lcm, gcd, 1, n)``.

    Squarefreeness makes the divisor lattice distributive (it is then
    isomorphic to the subset lattice of the prime factors).
    """

    name = "divisibility-lattice"
    idempotent_add = True
    idempotent_mul = True
    absorptive = True

    def __init__(self, modulus: int):
        if modulus < 1:
            raise ValueError("modulus must be a positive integer")
        if not self._is_squarefree(modulus):
            raise ValueError(f"{modulus} is not squarefree; lattice not distributive")
        self._modulus = modulus

    @staticmethod
    def _is_squarefree(n: int) -> bool:
        d = 2
        while d * d <= n:
            if n % (d * d) == 0:
                return False
            if n % d == 0:
                n //= d
            else:
                d += 1
        return True

    @property
    def modulus(self) -> int:
        return self._modulus

    @property
    def zero(self) -> int:
        return 1

    @property
    def one(self) -> int:
        return self._modulus

    def add(self, a: int, b: int) -> int:
        return a * b // math.gcd(a, b)

    def mul(self, a: int, b: int) -> int:
        return math.gcd(a, b)

    def element(self, value: int) -> int:
        if self._modulus % value != 0:
            raise ValueError(f"{value} does not divide {self._modulus}")
        return value


class ChainLatticeSemiring(Semiring[int]):
    """A finite chain ``{0 < 1 < ... < top}`` under ``(max, min, 0, top)``.

    The simplest nontrivial member of ``Chom``; a discrete analogue of
    the fuzzy semiring.
    """

    name = "chain-lattice"
    idempotent_add = True
    idempotent_mul = True
    absorptive = True
    selective = True

    def __init__(self, top: int):
        if top < 0:
            raise ValueError("top must be non-negative")
        self._top = top

    @property
    def top(self) -> int:
        return self._top

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return self._top

    def add(self, a: int, b: int) -> int:
        return a if a >= b else b

    def mul(self, a: int, b: int) -> int:
        return a if a <= b else b

    def element(self, value: int) -> int:
        if not 0 <= value <= self._top:
            raise ValueError(f"{value} outside chain [0, {self._top}]")
        return value


class FiniteLatticeSemiring(Semiring[Hashable]):
    """A finite bounded lattice given by an explicit ``leq`` relation.

    *order* maps each element to the set of elements **greater than or
    equal to** it (its up-set, including itself).  Joins and meets are
    computed as least upper / greatest lower bounds; a ``ValueError``
    at construction time signals a non-lattice order.  Distributivity
    is the caller's responsibility (checkable with
    :func:`repro.semirings.properties.check_semiring`).
    """

    name = "finite-lattice"
    idempotent_add = True
    idempotent_mul = True
    absorptive = True

    def __init__(self, order: Mapping[Hashable, Iterable[Hashable]]):
        self._upsets = {x: frozenset(ups) | {x} for x, ups in order.items()}
        self._elements: Sequence[Hashable] = tuple(self._upsets)
        self._downsets = {
            x: frozenset(y for y in self._elements if x in self._upsets[y])
            for x in self._elements
        }
        self._bottom = self._unique_extreme(is_bottom=True)
        self._top = self._unique_extreme(is_bottom=False)
        self._join_table: dict[tuple[Hashable, Hashable], Hashable] = {}
        self._meet_table: dict[tuple[Hashable, Hashable], Hashable] = {}
        for a in self._elements:
            for b in self._elements:
                self._join_table[(a, b)] = self._bound(a, b, join=True)
                self._meet_table[(a, b)] = self._bound(a, b, join=False)

    def _unique_extreme(self, is_bottom: bool) -> Hashable:
        if is_bottom:
            candidates = [x for x in self._elements if self._downsets[x] == frozenset({x})]
            kind = "bottom"
        else:
            candidates = [x for x in self._elements if self._upsets[x] == frozenset({x})]
            kind = "top"
        if len(candidates) != 1:
            raise ValueError(f"order does not have a unique {kind}: {candidates}")
        return candidates[0]

    def _bound(self, a: Hashable, b: Hashable, join: bool) -> Hashable:
        if join:
            common = self._upsets[a] & self._upsets[b]
            minimal = [x for x in common if not any(y != x and x in self._upsets[y] for y in common)]
        else:
            common = self._downsets[a] & self._downsets[b]
            minimal = [x for x in common if not any(y != x and x in self._downsets[y] for y in common)]
        if len(minimal) != 1:
            raise ValueError(f"no unique {'join' if join else 'meet'} for {a!r}, {b!r}")
        return minimal[0]

    @property
    def elements(self) -> Sequence[Hashable]:
        return self._elements

    @property
    def zero(self) -> Hashable:
        return self._bottom

    @property
    def one(self) -> Hashable:
        return self._top

    def add(self, a: Hashable, b: Hashable) -> Hashable:
        return self._join_table[(a, b)]

    def mul(self, a: Hashable, b: Hashable) -> Hashable:
        return self._meet_table[(a, b)]
