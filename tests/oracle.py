"""Shared oracle-vs-fast-path fixtures for the equivalence tests.

Grounding (``engine``) and fixpoint (``strategy``) each have one fast
path, ``columnar``, and one paper-literal reference oracle, ``naive``.
The equivalence tests run every ``(engine, strategy)`` pair and compare
it against the all-naive oracle.
"""

from hypothesis import settings

from repro.config import ExecutionConfig

#: Naive grounding plus the naive fixpoint: the reference every fast
#: path is checked against.
ORACLE = ExecutionConfig(engine="naive", strategy="naive")
#: The naive join engine alone (the fixpoint stays the default).
NAIVE_ENGINE = ExecutionConfig(engine="naive")
#: The four ``(engine, strategy)`` pairs, fast path first.
PAIRS = tuple(
    ExecutionConfig(engine=engine, strategy=strategy)
    for engine in ("columnar", "naive")
    for strategy in ("columnar", "naive")
)


def assert_same_result(result, reference, semiring) -> None:
    """*result* agrees with *reference* on values, rounds and convergence."""
    assert result.iterations == reference.iterations
    assert result.converged == reference.converged
    assert set(result.values) == set(reference.values)
    for fact, value in reference.values.items():
        assert semiring.eq(result.values[fact], value), fact


def without_round_count(ground):
    """*ground* with its recorded Boolean round count cleared, so a
    columnar solve over it runs the fixpoint kernel instead of reading
    an all-``one`` ⊕-idempotent answer off the grounding."""
    ground.iterations = None
    return ground


def examples(count: int) -> int:
    """*count* Hypothesis examples, or the ``ci`` profile's count when
    that profile is loaded (``--hypothesis-profile ci``, registered in
    ``tests/conftest.py``): explicit per-test settings would otherwise
    override the profile."""
    ci = settings.get_profile("ci").max_examples
    return ci if settings.default.max_examples == ci else count
