"""Fixpoint evaluation over semirings, cross-checked against networkx."""

import math

import networkx as nx
import pytest

from repro.datalog import (
    Database,
    Fact,
    FixpointEngine,
    derivable_facts,
    transitive_closure,
)
from repro.semirings import BOOLEAN, COUNTING, TROPICAL, VITERBI
from repro.workloads import random_digraph, random_weights


def test_boolean_tc_matches_networkx_reachability():
    db = random_digraph(12, 24, seed=3)
    graph = nx.DiGraph(db.tuples("E"))
    result = FixpointEngine().evaluate(transitive_closure(), db, BOOLEAN)
    derived = {f.args for f, v in result.values.items() if v}
    # Non-empty-path reachability: BFS from each successor set, so that
    # (u, u) is included exactly when u lies on a cycle.
    expected = set()
    for u in graph.nodes:
        frontier = list(graph.successors(u))
        seen = set(frontier)
        while frontier:
            node = frontier.pop()
            for nxt in graph.successors(node):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        expected.update((u, v) for v in seen)
    assert derived == expected


def test_tropical_tc_matches_dijkstra():
    db = random_digraph(10, 20, seed=7)
    weights = random_weights(db, seed=7)
    graph = nx.DiGraph()
    for fact, w in weights.items():
        graph.add_edge(fact.args[0], fact.args[1], weight=w)
    result = FixpointEngine().evaluate(transitive_closure(), db, TROPICAL, weights=weights)
    lengths = dict(nx.all_pairs_dijkstra_path_length(graph))
    for fact, value in result.values.items():
        u, v = fact.args
        if u == v:
            continue  # TC's T(u,u) sums nonempty cycles, not the 0 path
        assert math.isclose(value, lengths[u][v]), (fact, value, lengths[u][v])


def test_counting_tc_counts_paths_on_dag():
    # 0→1→3, 0→2→3, 0→3: three paths 0→3.
    db = Database.from_edges([(0, 1), (1, 3), (0, 2), (2, 3), (0, 3)])
    value = FixpointEngine().evaluate(transitive_closure(), db, COUNTING).value(Fact("T", (0, 3)))
    assert value == 3


def test_counting_diverges_on_cycle():
    db = Database.from_edges([(0, 1), (1, 0), (0, 2)])
    result = FixpointEngine().evaluate(
        transitive_closure(), db, COUNTING, max_iterations=30
    )
    assert not result.converged


def test_counting_divergence_raises_when_asked():
    from repro.datalog.evaluation import DivergenceError

    db = Database.from_edges([(0, 1), (1, 0)])
    with pytest.raises(DivergenceError):
        FixpointEngine().evaluate(
            transitive_closure(),
            db,
            COUNTING,
            max_iterations=10,
            raise_on_divergence=True,
        )


def test_absorptive_converges_within_n_iterations():
    db = random_digraph(9, 20, seed=1)
    result = FixpointEngine().evaluate(transitive_closure(), db, TROPICAL, weights=random_weights(db))
    assert result.converged
    assert result.iterations <= len(result.values) + 2


def test_viterbi_best_path_probability():
    db = Database.from_edges([(0, 1), (1, 2), (0, 2)])
    weights = {
        Fact("E", (0, 1)): 0.9,
        Fact("E", (1, 2)): 0.9,
        Fact("E", (0, 2)): 0.5,
    }
    value = FixpointEngine().evaluate(transitive_closure(), db, VITERBI, weights).value(Fact("T", (0, 2)))
    assert math.isclose(value, 0.81)


def test_unannotated_facts_default_to_one():
    db = Database.from_edges([(0, 1), (1, 2)])
    value = FixpointEngine().evaluate(transitive_closure(), db, TROPICAL).value(Fact("T", (0, 2)))
    assert value == 0.0  # 1 ⊗ 1 = 0 + 0 in tropical


def test_underivable_fact_is_zero():
    db = Database.from_edges([(0, 1)])
    engine = FixpointEngine()
    assert engine.evaluate(transitive_closure(), db, TROPICAL).value(Fact("T", (1, 0))) == math.inf
    assert engine.evaluate(transitive_closure(), db, BOOLEAN).value(Fact("T", (1, 0))) is False


def test_target_values_filter():
    db = Database.from_edges([(0, 1)])
    result = FixpointEngine().evaluate(transitive_closure(), db, BOOLEAN)
    targets = result.target_values(transitive_closure())
    assert set(targets) == {Fact("T", (0, 1))}


def test_boolean_rounds_grow_with_diameter():
    _, short = derivable_facts(
        transitive_closure(), Database.from_edges([(i, i + 1) for i in range(3)])
    )
    _, long = derivable_facts(
        transitive_closure(), Database.from_edges([(i, i + 1) for i in range(12)])
    )
    assert long > short


def test_evaluation_reuses_precomputed_grounding():
    from repro.datalog import relevant_grounding

    db = Database.from_edges([(0, 1), (1, 2)])
    ground = relevant_grounding(transitive_closure(), db)
    result = FixpointEngine().evaluate(transitive_closure(), db, BOOLEAN, ground=ground)
    assert result.value(Fact("T", (0, 2)))


@pytest.mark.parametrize("semiring", [BOOLEAN, TROPICAL], ids=lambda s: s.name)
def test_oracle_reads_an_underived_stored_idb_fact_as_zero(semiring):
    """``T(0, 2)`` is stored and read by a rule body, but no rule
    derives it: the oracle reads it as 0, as the columnar kernel does."""
    from tests.oracle import ORACLE, assert_same_result

    db = Database([Fact("E", (0, 1)), Fact("E", (1, 0)), Fact("E", (2, 1)), Fact("T", (0, 2))])
    fast = FixpointEngine().evaluate(transitive_closure(), db, semiring)
    oracle = FixpointEngine(config=ORACLE).evaluate(transitive_closure(), db, semiring)
    assert len(fast.values) == 6
    assert_same_result(oracle, fast, semiring)
