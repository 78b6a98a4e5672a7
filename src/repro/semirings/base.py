"""Abstract semiring interface.

A (commutative) semiring is an algebraic structure ``(D, ⊕, ⊗, 0, 1)``
where ``(D, ⊕, 0)`` and ``(D, ⊗, 1)`` are commutative monoids, ``⊗``
distributes over ``⊕`` and ``0`` annihilates ``⊗`` (Section 2.2 of the
paper).  Concrete semirings subclass :class:`Semiring` and provide the
two operations plus the two constants; everything else (n-ary folds,
natural order, closure/star, powers) is derived here.

The boolean *property flags* (``idempotent_add``, ``absorptive``, ...)
are declarations by the implementer; :mod:`repro.semirings.properties`
verifies them empirically on samples.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import Any, Generic, Iterable, TypeVar

T = TypeVar("T")

__all__ = ["Semiring", "StarDivergenceError"]


class StarDivergenceError(RuntimeError):
    """Raised when the Kleene star iteration does not stabilize.

    Over a non-stable semiring (e.g. the counting semiring) the infinite
    sum ``1 ⊕ u ⊕ u² ⊕ ...`` has no finite value; :meth:`Semiring.star`
    raises this error after exhausting its iteration budget.
    """


class Semiring(ABC, Generic[T]):
    """A commutative semiring ``(D, ⊕, ⊗, 0, 1)``.

    Subclasses must implement :attr:`zero`, :attr:`one`, :meth:`add`
    and :meth:`mul`, and should declare the class-level property flags.

    The flags mirror the definitions of Section 2.2:

    * ``idempotent_add`` -- ``x ⊕ x = x``.
    * ``idempotent_mul`` -- ``x ⊗ x = x`` (the class ``Chom`` of the
      paper consists of absorptive ⊗-idempotent semirings).
    * ``absorptive`` -- ``1 ⊕ x = 1`` (equivalently, the semiring is
      0-stable).  Absorptive implies ``idempotent_add``.
    * ``selective`` -- ``x ⊕ y ∈ {x, y}``: a sum is one of its
      summands (min/max-style ⊕).  Selective implies
      ``idempotent_add``.  A fixpoint value is then the ⊗-term of one
      of the fact's ground rules; with absorption as well,
      :class:`~repro.datalog.incremental.MaintainedFixpoint` keeps
      that rule as the fact's acyclic *witness* (DESIGN.md §11).
    * ``naturally_ordered`` -- ``x ≤ y ⟺ ∃z. x ⊕ z = y`` is a partial
      order.
    * ``positive`` -- the map to the Boolean semiring sending 0 to
      False and everything else to True is a homomorphism.
    """

    name: str = "semiring"
    idempotent_add: bool = False
    idempotent_mul: bool = False
    absorptive: bool = False
    selective: bool = False
    naturally_ordered: bool = True
    positive: bool = True

    #: Optional closure-compiler specializations (DESIGN.md §7): pure
    #: Python expression templates over the placeholders ``{a}`` and
    #: ``{b}`` that are semantically identical to :meth:`add` /
    #: :meth:`mul`.  When both are set, the circuit evaluation runtime
    #: (:mod:`repro.circuits.runtime`) ``exec``-generates a kernel
    #: with the two operations fused into local-variable expressions
    #: -- no method call per gate.  Templates must be side-effect-free
    #: and closed (no references to ``self``); a placeholder may be
    #: substituted more than once.  ``None`` (the default) selects the
    #: generic kernel, which calls the bound methods.
    compiled_add_expr: str | None = None
    compiled_mul_expr: str | None = None

    # ------------------------------------------------------------------
    # Core interface
    # ------------------------------------------------------------------

    @property
    @abstractmethod
    def zero(self) -> T:
        """The additive identity (annihilator of ``⊗``)."""

    @property
    @abstractmethod
    def one(self) -> T:
        """The multiplicative identity."""

    @abstractmethod
    def add(self, a: T, b: T) -> T:
        """Return ``a ⊕ b``."""

    @abstractmethod
    def mul(self, a: T, b: T) -> T:
        """Return ``a ⊗ b``."""

    # ------------------------------------------------------------------
    # Derived operations
    # ------------------------------------------------------------------

    def eq(self, a: T, b: T) -> bool:
        """Semiring-element equality (override for approximate domains)."""
        return a == b

    def is_zero(self, a: T) -> bool:
        return self.eq(a, self.zero)

    def is_one(self, a: T) -> bool:
        return self.eq(a, self.one)

    def add_all(self, values: Iterable[T]) -> T:
        """Fold ``⊕`` over *values*; the empty sum is ``0``."""
        result = self.zero
        for value in values:
            result = self.add(result, value)
        return result

    def mul_all(self, values: Iterable[T]) -> T:
        """Fold ``⊗`` over *values*; the empty product is ``1``."""
        result = self.one
        for value in values:
            result = self.mul(result, value)
        return result

    def power(self, a: T, exponent: int) -> T:
        """Return ``a ⊗ a ⊗ ... ⊗ a`` (*exponent* times, ``a⁰ = 1``)."""
        if exponent < 0:
            raise ValueError("semiring powers require a non-negative exponent")
        result = self.one
        base = a
        n = exponent
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def leq(self, a: T, b: T) -> bool:
        """The natural order ``a ≤ b ⟺ ∃z. a ⊕ z = b``.

        For ⊕-idempotent semirings this simplifies to ``a ⊕ b = b``,
        which is the default implementation.  Non-idempotent semirings
        must override (e.g. the counting semiring uses ``<=`` on ℕ).
        """
        return self.eq(self.add(a, b), b)

    def star(self, a: T, max_iterations: int = 64) -> T:
        """The Kleene star ``a* = 1 ⊕ a ⊕ a² ⊕ ...``.

        For an absorptive semiring ``a* = 1`` identically (0-stability).
        Otherwise we iterate the partial sums until they stabilize and
        raise :class:`StarDivergenceError` after *max_iterations*.
        """
        if self.absorptive:
            return self.one
        partial = self.one
        power = self.one
        for _ in range(max_iterations):
            power = self.mul(power, a)
            nxt = self.add(partial, power)
            if self.eq(nxt, partial):
                return partial
            partial = nxt
        raise StarDivergenceError(
            f"star of {a!r} over {self.name} did not stabilize in "
            f"{max_iterations} iterations"
        )

    def stability_index(self, a: T, max_iterations: int = 64) -> int:
        """Smallest ``p`` with ``1 ⊕ a ⊕ ... ⊕ a^p = 1 ⊕ ... ⊕ a^(p+1)``.

        A semiring is *p-stable* when every element has stability index
        at most ``p``; absorptive semirings are exactly the 0-stable
        ones (Section 2.3).
        """
        partial = self.one
        power = self.one
        for p in range(max_iterations):
            power = self.mul(power, a)
            nxt = self.add(partial, power)
            if self.eq(nxt, partial):
                return p
            partial = nxt
        raise StarDivergenceError(
            f"element {a!r} of {self.name} is not p-stable for p < {max_iterations}"
        )

    def from_bool(self, flag: bool) -> T:
        """Map a Boolean to ``1``/``0`` (the unique hom from ``B``)."""
        return self.one if flag else self.zero

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def sum_of_products(self, monomials: Iterable[Iterable[T]]) -> T:
        """Evaluate a DNF ``⊕ᵢ ⊗ⱼ vᵢⱼ`` directly."""
        return self.add_all(self.mul_all(m) for m in monomials)

    def pairwise_distinct(self, values: Iterable[T]) -> list[T]:
        """De-duplicate *values* under :meth:`eq` (quadratic; test helper)."""
        distinct: list[T] = []
        for value in values:
            if not any(self.eq(value, seen) for seen in distinct):
                distinct.append(value)
        return distinct

    def close_under_ops(self, seeds: Iterable[T], rounds: int = 2) -> list[T]:
        """Close *seeds* under ``⊕``/``⊗`` for a few rounds (test helper)."""
        elements = self.pairwise_distinct(itertools.chain([self.zero, self.one], seeds))
        for _ in range(rounds):
            fresh: list[T] = []
            for a, b in itertools.combinations_with_replacement(elements, 2):
                for candidate in (self.add(a, b), self.mul(a, b)):
                    if not any(self.eq(candidate, e) for e in elements) and not any(
                        self.eq(candidate, f) for f in fresh
                    ):
                        fresh.append(candidate)
            if not fresh:
                break
            elements.extend(fresh)
        return elements

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"

    def describe(self) -> dict[str, Any]:
        """A dictionary of the declared algebraic property flags."""
        return {
            "name": self.name,
            "idempotent_add": self.idempotent_add,
            "idempotent_mul": self.idempotent_mul,
            "absorptive": self.absorptive,
            "selective": self.selective,
            "naturally_ordered": self.naturally_ordered,
            "positive": self.positive,
        }
