"""The declared ``selective`` flag (``a ⊕ b ∈ {a, b}``) of every built-in
semiring agrees with what :func:`check_semiring` observes on samples.

Agreement runs both ways: a semiring declared selective shows no
counterexample, and one declared non-selective shows one, so a wrong
declaration in either direction fails here.  Maintenance relies on
the flag (DESIGN.md §11): an absorptive selective semiring keeps one
witness rule per fact.
"""

import math

import pytest

from repro.semirings import (
    ARCTIC,
    BOOLEAN,
    COUNTING,
    COUNTING_CAP,
    FUZZY,
    LUKASIEWICZ,
    NATURAL_POLY,
    SORP,
    TROPICAL,
    TROPICAL_INT,
    VITERBI,
    ChainLatticeSemiring,
    DivisibilityLatticeSemiring,
    FiniteLatticeSemiring,
    KTropicalSemiring,
    SubsetLatticeSemiring,
    check_semiring,
)

DIAMOND = FiniteLatticeSemiring({"bot": {"a", "b", "top"}, "a": {"top"}, "b": {"top"}, "top": set()})
TROP_2 = KTropicalSemiring(2)
x, y = SORP.var("x"), SORP.var("y")
p, q = NATURAL_POLY.var("x"), NATURAL_POLY.var("y")

CASES = [
    (BOOLEAN, [True, False]),
    (COUNTING, [0, 1, 2, 3]),
    (COUNTING_CAP, [0, 1, 2, 3]),
    (TROPICAL, [0.0, 1.0, 2.5, math.inf]),
    (TROPICAL_INT, [-3.0, 0.0, 2.0, math.inf]),
    (VITERBI, [0.0, 0.25, 0.5, 1.0]),
    (FUZZY, [0.0, 0.3, 0.6, 1.0]),
    (LUKASIEWICZ, [0.0, 0.25, 0.5, 1.0]),
    (ARCTIC, [-math.inf, 0.0, 1.0, 3.0]),
    (ChainLatticeSemiring(4), [0, 1, 2, 3, 4]),
    (SubsetLatticeSemiring("abc"), [frozenset("a"), frozenset("b"), frozenset("bc")]),
    (DivisibilityLatticeSemiring(30), [1, 2, 3, 5, 30]),
    (DIAMOND, list(DIAMOND.elements)),
    (TROP_2, [TROP_2.element(1.0), TROP_2.element(2.0, 5.0)]),
    (SORP, [x, y, x * y]),
    (NATURAL_POLY, [p, q]),
]


@pytest.mark.parametrize("semiring, samples", CASES, ids=[case[0].name for case in CASES])
def test_declared_selective_agrees_with_samples(semiring, samples):
    report = check_semiring(semiring, samples)
    assert report.is_selective is semiring.selective, report.counterexamples
    assert not any("selective" in issue for issue in report.matches_declared(semiring))


def test_selective_implies_idempotent_add():
    for semiring, samples in CASES:
        if semiring.selective:
            assert semiring.idempotent_add
            assert check_semiring(semiring, samples).is_idempotent_add
