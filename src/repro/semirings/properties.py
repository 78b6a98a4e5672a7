"""Empirical verification of semiring axioms and the paper's properties.

The property flags on :class:`~repro.semirings.base.Semiring` are
declarations; this module checks them on concrete sample elements:
all semiring axioms (Section 2.2), ⊕/⊗-idempotency, absorption,
⊕-selectivity, p-stability (Section 2.3) and positivity, plus whether
the natural order behaves as a partial order on the samples.

These checks are sound refuters (a failure is a real counterexample)
and heuristic verifiers (passing on samples is evidence, not proof) --
except on finite semirings where exhaustive samples make them proofs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .base import Semiring, StarDivergenceError

__all__ = ["PropertyReport", "check_semiring", "stability_bound", "is_p_stable_on"]


@dataclass
class PropertyReport:
    """Outcome of :func:`check_semiring` on one semiring + sample set."""

    semiring_name: str
    samples_checked: int
    is_commutative_add: bool = True
    is_commutative_mul: bool = True
    is_associative_add: bool = True
    is_associative_mul: bool = True
    has_add_identity: bool = True
    has_mul_identity: bool = True
    is_distributive: bool = True
    zero_annihilates: bool = True
    is_idempotent_add: bool = True
    is_idempotent_mul: bool = True
    is_absorptive: bool = True
    is_selective: bool = True
    natural_order_antisymmetric: bool = True
    is_positive: bool = True
    counterexamples: list[str] = field(default_factory=list)

    @property
    def is_semiring(self) -> bool:
        """All core semiring axioms hold on the samples."""
        return (
            self.is_commutative_add
            and self.is_commutative_mul
            and self.is_associative_add
            and self.is_associative_mul
            and self.has_add_identity
            and self.has_mul_identity
            and self.is_distributive
            and self.zero_annihilates
        )

    @property
    def in_chom(self) -> bool:
        """Membership in the class ``Chom``: absorptive + ⊗-idempotent."""
        return self.is_absorptive and self.is_idempotent_mul

    def matches_declared(self, semiring: Semiring) -> list[str]:
        """Return mismatches between declared flags and observations.

        Observation can only *refute* a declared True; a declared False
        that happens to hold on samples is not a mismatch (the law may
        fail elsewhere in the domain).
        """
        issues = []
        if semiring.idempotent_add and not self.is_idempotent_add:
            issues.append("declared ⊕-idempotent but a counterexample was found")
        if semiring.idempotent_mul and not self.is_idempotent_mul:
            issues.append("declared ⊗-idempotent but a counterexample was found")
        if semiring.absorptive and not self.is_absorptive:
            issues.append("declared absorptive but a counterexample was found")
        if semiring.selective and not self.is_selective:
            issues.append("declared selective but a counterexample was found")
        if semiring.positive and not self.is_positive:
            issues.append("declared positive but a counterexample was found")
        return issues


def _record(report: PropertyReport, attribute: str, message: str) -> None:
    setattr(report, attribute, False)
    if len(report.counterexamples) < 20:
        report.counterexamples.append(message)


def check_semiring(semiring: Semiring, samples: Sequence) -> PropertyReport:
    """Check every axiom and paper property of *semiring* on *samples*.

    *samples* should include a few "generic" elements; ``0`` and ``1``
    are always added.  Triple-wise laws (associativity, distributivity)
    are checked on all ordered triples, so keep samples small (≤ ~12).
    """
    elements = semiring.pairwise_distinct(
        itertools.chain([semiring.zero, semiring.one], samples)
    )
    report = PropertyReport(semiring_name=semiring.name, samples_checked=len(elements))
    eq, add, mul = semiring.eq, semiring.add, semiring.mul
    zero, one = semiring.zero, semiring.one

    for a in elements:
        if not eq(add(a, zero), a):
            _record(report, "has_add_identity", f"{a!r} ⊕ 0 ≠ {a!r}")
        if not eq(mul(a, one), a):
            _record(report, "has_mul_identity", f"{a!r} ⊗ 1 ≠ {a!r}")
        if not eq(mul(a, zero), zero):
            _record(report, "zero_annihilates", f"{a!r} ⊗ 0 ≠ 0")
        if not eq(add(a, a), a):
            _record(report, "is_idempotent_add", f"{a!r} ⊕ {a!r} ≠ {a!r}")
        if not eq(mul(a, a), a):
            _record(report, "is_idempotent_mul", f"{a!r} ⊗ {a!r} ≠ {a!r}")
        if not eq(add(one, a), one):
            _record(report, "is_absorptive", f"1 ⊕ {a!r} ≠ 1")

    for a, b in itertools.product(elements, repeat=2):
        total = add(a, b)
        if not (eq(total, a) or eq(total, b)):
            _record(report, "is_selective", f"{a!r} ⊕ {b!r} is neither summand")
        if not eq(total, add(b, a)):
            _record(report, "is_commutative_add", f"{a!r} ⊕ {b!r} not commutative")
        if not eq(mul(a, b), mul(b, a)):
            _record(report, "is_commutative_mul", f"{a!r} ⊗ {b!r} not commutative")
        # Positivity: x ⊗ y = 0 ⇒ x = 0 or y = 0; x ⊕ y = 0 ⇒ x = y = 0.
        if eq(mul(a, b), zero) and not (eq(a, zero) or eq(b, zero)):
            _record(report, "is_positive", f"zero divisors: {a!r} ⊗ {b!r} = 0")
        if eq(add(a, b), zero) and not (eq(a, zero) and eq(b, zero)):
            _record(report, "is_positive", f"0 is a non-trivial sum: {a!r} ⊕ {b!r}")
        # Antisymmetry of the natural order on the samples.
        if semiring.leq(a, b) and semiring.leq(b, a) and not eq(a, b):
            _record(
                report,
                "natural_order_antisymmetric",
                f"{a!r} ≤ {b!r} ≤ {a!r} but {a!r} ≠ {b!r}",
            )

    for a, b, c in itertools.product(elements, repeat=3):
        if not eq(add(add(a, b), c), add(a, add(b, c))):
            _record(report, "is_associative_add", f"⊕ not associative on {a!r},{b!r},{c!r}")
        if not eq(mul(mul(a, b), c), mul(a, mul(b, c))):
            _record(report, "is_associative_mul", f"⊗ not associative on {a!r},{b!r},{c!r}")
        if not eq(mul(a, add(b, c)), add(mul(a, b), mul(a, c))):
            _record(report, "is_distributive", f"distributivity fails on {a!r},{b!r},{c!r}")

    return report


def stability_bound(semiring: Semiring, samples: Sequence, max_iterations: int = 64) -> Optional[int]:
    """Max stability index over *samples*, or ``None`` if some diverges.

    A return of ``p`` certifies the samples are p-stable; an absorptive
    semiring returns 0 on every sample (Section 2.3: absorptive =
    0-stable).
    """
    worst = 0
    for a in samples:
        try:
            worst = max(worst, semiring.stability_index(a, max_iterations))
        except StarDivergenceError:
            return None
    return worst


def is_p_stable_on(semiring: Semiring, samples: Sequence, p: int) -> bool:
    """Check ``1 ⊕ a ⊕ ... ⊕ a^p = 1 ⊕ ... ⊕ a^(p+1)`` for each sample."""
    for a in samples:
        lhs = semiring.add_all(semiring.power(a, i) for i in range(p + 1))
        rhs = semiring.add(lhs, semiring.power(a, p + 1))
        if not semiring.eq(lhs, rhs):
            return False
    return True
