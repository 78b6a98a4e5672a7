"""Trop_k: p-stable semirings beyond the absorptive class."""


import pytest

from repro.api import solve
from repro.datalog import Fact, transitive_closure
from repro.semirings import KTropicalSemiring, check_semiring, is_p_stable_on
from repro.workloads import random_digraph, random_weights


def samples(semiring):
    return [
        semiring.zero,
        semiring.one,
        semiring.element(1.0),
        semiring.element(2.0, 5.0),
        semiring.element(0.0, 3.0, 7.0),
    ]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_axioms(k):
    semiring = KTropicalSemiring(k)
    report = check_semiring(semiring, samples(semiring))
    assert report.is_semiring, report.counterexamples


def test_k1_is_tropical():
    semiring = KTropicalSemiring(1)
    assert semiring.absorptive
    assert semiring.add((3.0,), (5.0,)) == (3.0,)
    assert semiring.mul((3.0,), (5.0,)) == (8.0,)
    report = check_semiring(semiring, samples(semiring))
    assert report.is_absorptive


def test_k2_not_absorptive_but_stable():
    semiring = KTropicalSemiring(2)
    report = check_semiring(semiring, samples(semiring))
    assert not report.is_absorptive  # 1 ⊕ (1.0,) = (0.0, 1.0) ≠ 1
    assert is_p_stable_on(semiring, samples(semiring), semiring.expected_stability())


@pytest.mark.parametrize("k", [2, 3, 4])
def test_stability_index_is_k_minus_one(k):
    semiring = KTropicalSemiring(k)
    # the single positive weight element needs exactly k-1 extra powers
    assert semiring.stability_index(semiring.element(1.0)) == k - 1


def test_operations():
    semiring = KTropicalSemiring(2)
    assert semiring.add((1.0, 4.0), (2.0, 3.0)) == (1.0, 2.0)
    assert semiring.mul((1.0, 4.0), (2.0,)) == (3.0, 6.0)
    assert semiring.mul((), (1.0,)) == ()  # annihilation
    assert semiring.element(5.0, 1.0, 3.0) == (1.0, 3.0)


def test_invalid_k():
    with pytest.raises(ValueError):
        KTropicalSemiring(0)


def test_k_shortest_walks_via_datalog():
    """TC over Trop_k computes the k shortest walk weights -- the
    provenance story beyond absorptive semirings."""
    k = 3
    semiring = KTropicalSemiring(k)
    db = random_digraph(6, 12, seed=5)
    raw_weights = random_weights(db, seed=5)
    weights = {fact: (w,) for fact, w in raw_weights.items()}
    result = solve(
        db and transitive_closure(), db, semiring, weights=weights, max_iterations=200
    )
    assert result.converged

    # brute-force k shortest walks 0 -> 5 (bounded hops; enough because
    # extra loops only add weight)
    adjacency = {}
    for fact, w in raw_weights.items():
        adjacency.setdefault(fact.args[0], []).append((fact.args[1], w))
    walks = []
    frontier = [(0.0, 0)]
    for _hop in range(12):
        fresh = []
        for cost, node in frontier:
            for nxt, w in adjacency.get(node, ()):
                total = cost + w
                fresh.append((total, nxt))
                if nxt == 5:
                    walks.append(total)
        fresh.sort()
        frontier = fresh[:200]
    expected = tuple(sorted(walks)[:k])
    assert result.value(Fact("T", (0, 5))) == expected
