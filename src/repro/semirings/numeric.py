"""Concrete numeric semirings from Section 2.2 of the paper.

* :class:`BooleanSemiring` -- ``({False, True}, ∨, ∧)``; absorptive.
* :class:`CountingSemiring` -- ``(ℕ, +, ·)``; positive, naturally
  ordered, *not* idempotent (naive Datalog evaluation may diverge).
* :class:`CappedCountingSemiring` -- ``({0..q}, ⊕, ⊗)`` with
  saturating ops; the ``q``-stable quotient of counting on which
  fixpoints converge even on cycles.
* :class:`TropicalSemiring` -- ``(ℕ ∪ {∞}, min, +)``; absorptive.
  Provenance of transitive closure over it is shortest-path weight.
* :class:`TropicalIntegerSemiring` -- ``(ℤ ∪ {∞}, min, +)`` (the
  paper's ``T⁻``); idempotent but **not** absorptive because negative
  weights defeat ``1 ⊕ x = 1``.
* :class:`ViterbiSemiring` -- ``([0, 1], max, ·)``; absorptive.
* :class:`FuzzySemiring` -- ``([0, 1], max, min)`` (Gödel); absorptive
  and ⊗-idempotent, hence in the class ``Chom``.
* :class:`LukasiewiczSemiring` -- ``([0, 1], max, a ⊗ b = max(0, a+b-1))``;
  absorptive but not ⊗-idempotent.
* :class:`ArcticSemiring` -- ``(ℕ ∪ {-∞}, max, +)``; naturally ordered
  but not absorptive (longest-path provenance diverges on cycles).
"""

from __future__ import annotations

import math

from .base import Semiring

__all__ = [
    "BooleanSemiring",
    "CountingSemiring",
    "CappedCountingSemiring",
    "TropicalSemiring",
    "TropicalIntegerSemiring",
    "ViterbiSemiring",
    "FuzzySemiring",
    "LukasiewiczSemiring",
    "ArcticSemiring",
    "BOOLEAN",
    "COUNTING",
    "COUNTING_CAP",
    "TROPICAL",
    "TROPICAL_INT",
    "VITERBI",
    "FUZZY",
    "LUKASIEWICZ",
    "ARCTIC",
]

_INF = math.inf


class BooleanSemiring(Semiring[bool]):
    """The Boolean semiring ``B = ({False, True}, ∨, ∧, False, True)``."""

    name = "boolean"
    idempotent_add = True
    idempotent_mul = True
    absorptive = True
    selective = True
    compiled_add_expr = "({a} or {b})"
    compiled_mul_expr = "({a} and {b})"

    @property
    def zero(self) -> bool:
        return False

    @property
    def one(self) -> bool:
        return True

    def add(self, a: bool, b: bool) -> bool:
        return a or b

    def mul(self, a: bool, b: bool) -> bool:
        return a and b


class CountingSemiring(Semiring[int]):
    """The counting semiring ``C = (ℕ, +, ·, 0, 1)``.

    Counts the number of derivations; it is positive and naturally
    ordered but not idempotent, so recursive programs with cycles have
    no finite fixpoint over it.
    """

    name = "counting"
    idempotent_add = False
    idempotent_mul = False
    absorptive = False
    compiled_add_expr = "({a} + {b})"
    compiled_mul_expr = "({a} * {b})"

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def add(self, a: int, b: int) -> int:
        return a + b

    def mul(self, a: int, b: int) -> int:
        return a * b

    def leq(self, a: int, b: int) -> bool:
        return a <= b


class CappedCountingSemiring(Semiring[int]):
    """The truncated counting semiring ``C_q = ({0, …, q}, ⊕, ⊗, 0, 1)``
    with saturating ``a ⊕ b = min(q, a + b)`` and ``a ⊗ b = min(q, a·b)``.

    The quotient of ``(ℕ, +, ·)`` identifying every count ≥ ``q``
    ("q-or-more derivations"); truncation ``ℕ → C_q`` is a semiring
    homomorphism.  Unlike the counting semiring it is ``q``-stable, so
    fixpoint evaluation converges even on cyclic inputs -- the
    non-idempotent, non-absorptive convergent case in the
    naive/semi-naive equivalence tests.
    """

    idempotent_add = False
    idempotent_mul = False
    absorptive = False

    def __init__(self, cap: int = 1024) -> None:
        if cap < 1:
            raise ValueError("cap must be at least 1")
        self.cap = cap
        self.name = f"counting-cap{cap}"

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def add(self, a: int, b: int) -> int:
        total = a + b
        return total if total < self.cap else self.cap

    def mul(self, a: int, b: int) -> int:
        product = a * b
        return product if product < self.cap else self.cap

    def leq(self, a: int, b: int) -> bool:
        return a <= b


class TropicalSemiring(Semiring[float]):
    """The tropical semiring ``T = (ℕ ∪ {+∞}, min, +, +∞, 0)``.

    The domain is represented with ``float`` so that ``math.inf`` can
    stand for the additive identity; any non-negative weights are
    accepted.  Provenance of TC over ``T`` is shortest-path weight.
    """

    name = "tropical"
    idempotent_add = True
    idempotent_mul = False
    absorptive = True
    selective = True
    compiled_add_expr = "({a} if {a} <= {b} else {b})"
    compiled_mul_expr = "({a} + {b})"

    @property
    def zero(self) -> float:
        return _INF

    @property
    def one(self) -> float:
        return 0.0

    def add(self, a: float, b: float) -> float:
        return a if a <= b else b

    def mul(self, a: float, b: float) -> float:
        return a + b

    def leq(self, a: float, b: float) -> bool:
        # Natural order of (min, +): a ≤_S b iff min(a, b) = b iff b <= a.
        return b <= a


class TropicalIntegerSemiring(TropicalSemiring):
    """``T⁻ = (ℤ ∪ {+∞}, min, +, +∞, 0)``: idempotent, not absorptive.

    With negative weights ``1 ⊕ x = min(0, x)`` can be negative, so the
    absorption law fails; this is the paper's running example of an
    idempotent non-absorptive semiring.
    """

    name = "tropical-int"
    absorptive = False


class ViterbiSemiring(Semiring[float]):
    """The Viterbi semiring ``V = ([0, 1], max, ·, 0, 1)``; absorptive."""

    name = "viterbi"
    idempotent_add = True
    idempotent_mul = False
    absorptive = True
    selective = True
    compiled_add_expr = "({a} if {a} >= {b} else {b})"
    compiled_mul_expr = "({a} * {b})"

    @property
    def zero(self) -> float:
        return 0.0

    @property
    def one(self) -> float:
        return 1.0

    def add(self, a: float, b: float) -> float:
        return a if a >= b else b

    def mul(self, a: float, b: float) -> float:
        return a * b

    def eq(self, a: float, b: float) -> bool:
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


class FuzzySemiring(Semiring[float]):
    """The fuzzy (Gödel) semiring ``([0, 1], max, min, 0, 1)``.

    Absorptive *and* ⊗-idempotent, hence a member of the class ``Chom``
    (a bounded distributive lattice, in fact a chain).
    """

    name = "fuzzy"
    idempotent_add = True
    idempotent_mul = True
    absorptive = True
    selective = True
    compiled_add_expr = "({a} if {a} >= {b} else {b})"
    compiled_mul_expr = "({a} if {a} <= {b} else {b})"

    @property
    def zero(self) -> float:
        return 0.0

    @property
    def one(self) -> float:
        return 1.0

    def add(self, a: float, b: float) -> float:
        return a if a >= b else b

    def mul(self, a: float, b: float) -> float:
        return a if a <= b else b


class LukasiewiczSemiring(Semiring[float]):
    """The Łukasiewicz semiring ``([0, 1], max, max(0, a + b - 1), 0, 1)``.

    Absorptive (``max(1, x) = 1``) but not ⊗-idempotent, so it lies in
    the absorptive class but outside ``Chom``.  It is also **not**
    positive (``0.5 ⊗ 0.5 = 0`` is a zero divisor), making it a useful
    control for the Proposition 3.6 transfer arguments, which require
    positivity.
    """

    name = "lukasiewicz"
    idempotent_add = True
    idempotent_mul = False
    absorptive = True
    selective = True
    positive = False
    compiled_add_expr = "({a} if {a} >= {b} else {b})"
    compiled_mul_expr = "(({a} + {b} - 1.0) if ({a} + {b}) > 1.0 else 0.0)"

    @property
    def zero(self) -> float:
        return 0.0

    @property
    def one(self) -> float:
        return 1.0

    def add(self, a: float, b: float) -> float:
        return a if a >= b else b

    def mul(self, a: float, b: float) -> float:
        value = a + b - 1.0
        return value if value > 0.0 else 0.0

    def eq(self, a: float, b: float) -> bool:
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


class ArcticSemiring(Semiring[float]):
    """The arctic semiring ``(ℕ ∪ {-∞}, max, +, -∞, 0)``.

    Longest-path provenance; *not* absorptive (``max(0, x) ≠ 0`` for
    ``x > 0``), so TC over it diverges on cyclic inputs.  Included as a
    negative control for the absorptive-only theorems.
    """

    name = "arctic"
    idempotent_add = True
    idempotent_mul = False
    absorptive = False
    selective = True
    compiled_add_expr = "({a} if {a} >= {b} else {b})"
    compiled_mul_expr = "({a} + {b})"

    @property
    def zero(self) -> float:
        return -_INF

    @property
    def one(self) -> float:
        return 0.0

    def add(self, a: float, b: float) -> float:
        return a if a >= b else b

    def mul(self, a: float, b: float) -> float:
        return a + b


BOOLEAN = BooleanSemiring()
COUNTING = CountingSemiring()
COUNTING_CAP = CappedCountingSemiring()
TROPICAL = TropicalSemiring()
TROPICAL_INT = TropicalIntegerSemiring()
VITERBI = ViterbiSemiring()
FUZZY = FuzzySemiring()
LUKASIEWICZ = LukasiewiczSemiring()
ARCTIC = ArcticSemiring()
