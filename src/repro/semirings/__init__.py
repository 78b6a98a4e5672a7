"""Semirings for Datalog provenance (Section 2.2 of the paper).

Public surface:

* :class:`Semiring` -- the abstract interface.
* Concrete numeric semirings: Boolean, Counting, Tropical (ℕ and ℤ
  variants), Viterbi, Fuzzy/Gödel, Łukasiewicz, Arctic.
* Lattice semirings (the class ``Chom`` = bounded distributive
  lattices): subset, divisibility, chain, generic finite.
* Free polynomial semirings: ``ℕ[X]`` and the absorptive ``Sorp(X)``
  used as the canonical provenance domain.
* Property checking and homomorphisms (incl. the positivity map of
  Proposition 3.6 and Sorp-evaluation by initiality).
"""

from .base import Semiring, StarDivergenceError
from .homomorphism import (
    SemiringHomomorphism,
    boolean_embedding,
    evaluation_homomorphism,
    formal_evaluation_homomorphism,
    positivity_homomorphism,
)
from .lattice import (
    ChainLatticeSemiring,
    DivisibilityLatticeSemiring,
    FiniteLatticeSemiring,
    SubsetLatticeSemiring,
)
from .numeric import (
    ARCTIC,
    BOOLEAN,
    COUNTING,
    COUNTING_CAP,
    FUZZY,
    LUKASIEWICZ,
    TROPICAL,
    TROPICAL_INT,
    VITERBI,
    ArcticSemiring,
    BooleanSemiring,
    CappedCountingSemiring,
    CountingSemiring,
    FuzzySemiring,
    LukasiewiczSemiring,
    TropicalIntegerSemiring,
    TropicalSemiring,
    ViterbiSemiring,
)
from .polynomial import (
    NATURAL_POLY,
    SORP,
    SORP_IDEMPOTENT,
    FormalPolynomial,
    Monomial,
    NaturalPolynomialSemiring,
    Polynomial,
    SorpSemiring,
)
from .stable import KTropicalSemiring
from .properties import PropertyReport, check_semiring, is_p_stable_on, stability_bound

__all__ = [
    "Semiring",
    "StarDivergenceError",
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
    "SEMIRINGS_BY_NAME",
    "SubsetLatticeSemiring",
    "DivisibilityLatticeSemiring",
    "ChainLatticeSemiring",
    "FiniteLatticeSemiring",
    "Monomial",
    "Polynomial",
    "SorpSemiring",
    "FormalPolynomial",
    "NaturalPolynomialSemiring",
    "SORP",
    "SORP_IDEMPOTENT",
    "NATURAL_POLY",
    "KTropicalSemiring",
    "PropertyReport",
    "check_semiring",
    "stability_bound",
    "is_p_stable_on",
    "SemiringHomomorphism",
    "positivity_homomorphism",
    "evaluation_homomorphism",
    "formal_evaluation_homomorphism",
    "boolean_embedding",
]

#: Wire name → semiring singleton: the vocabulary of the serving
#: stack's ``semiring`` field and of ``repro.lint --semiring``.  Only
#: semirings whose values survive a JSON round-trip are named.  Two
#: names differ from ``Semiring.name`` (``counting_cap``,
#: ``tropical_int``), hence a table.
SEMIRINGS_BY_NAME = {
    "boolean": BOOLEAN,
    "counting": COUNTING,
    "counting_cap": COUNTING_CAP,
    "tropical": TROPICAL,
    "tropical_int": TROPICAL_INT,
    "viterbi": VITERBI,
    "fuzzy": FUZZY,
    "lukasiewicz": LUKASIEWICZ,
    "arctic": ARCTIC,
}

#: All built-in absorptive semiring singletons (used by parametrized tests).
ABSORPTIVE_SEMIRINGS = (BOOLEAN, TROPICAL, VITERBI, FUZZY, LUKASIEWICZ)

#: Built-in members of the class ``Chom`` (absorptive + ⊗-idempotent).
CHOM_SEMIRINGS = (BOOLEAN, FUZZY)
