"""Annotated databases."""

import pytest

from repro.api import solve
from repro.datalog import Database, Fact, transitive_closure
from repro.semirings import TROPICAL
from repro.workloads import random_digraph, random_weights
from tests.oracle import ORACLE


def test_add_and_contains():
    db = Database()
    fact = db.add("E", 1, 2)
    assert fact == Fact("E", (1, 2))
    assert fact in db
    assert Fact("E", (2, 1)) not in db


def test_size_is_total_fact_count():
    db = Database.from_edges([(1, 2), (2, 3)])
    db.add("A", 1)
    assert len(db) == 3
    assert db.size == 3


def test_active_domain():
    db = Database.from_edges([(1, 2), (2, 3)])
    db.add("A", "x")
    assert db.active_domain() == {1, 2, 3, "x"}


def test_facts_iteration_sorted_and_filtered():
    db = Database.from_edges([(2, 3), (1, 2)])
    db.add("A", 9)
    all_facts = list(db.facts())
    assert len(all_facts) == 3
    e_facts = list(db.facts("E"))
    assert all(f.predicate == "E" for f in e_facts)


def test_duplicate_insert_is_idempotent():
    db = Database()
    db.add("E", 1, 2)
    db.add("E", 1, 2)
    assert len(db) == 1


def test_weights_and_valuation():
    db = Database()
    f1 = db.add("E", 1, 2, weight=5.0)
    f2 = db.add("E", 2, 3)
    valuation = db.valuation(TROPICAL)
    assert valuation[f1] == 5.0
    assert valuation[f2] == TROPICAL.one  # default 1 = 0.0


def test_set_weight_checks_membership():
    db = Database()
    fact = db.add("E", 1, 2)
    db.set_weight(fact, 7.0)
    assert db.weight(fact) == 7.0
    with pytest.raises(KeyError):
        db.set_weight(Fact("E", (9, 9)), 1.0)


def test_nan_weights_are_rejected_everywhere():
    # NaN breaks the semiring laws: a tropical solve with one NaN edge
    # used to converge in 7 rounds while the naive oracle ran 216
    # rounds without converging and disagreed with it on 53 facts.
    db = random_digraph(16, 48, seed=7)
    weights = random_weights(db, seed=8)
    first, second = sorted(weights, key=repr)[:2]
    weights[first] = float("inf")
    weights[second] = float("nan")
    for config in (None, ORACLE):
        with pytest.raises(ValueError, match="NaN"):
            solve(transitive_closure(), db, TROPICAL, weights=weights, config=config)
    with pytest.raises(ValueError, match="NaN"):
        Database(weights=weights)
    with pytest.raises(ValueError, match="NaN"):
        db.set_weight(second, float("nan"))
    with pytest.raises(ValueError, match="NaN"):
        db.add("E", 99, 100, weight=float("nan"))
    assert db.weight(second) is None and Fact("E", (99, 100)) not in db
    # inf stays a valid tropical weight.
    db.set_weight(first, float("inf"))


def test_from_labeled_edges():
    db = Database.from_labeled_edges([(0, "a", 1), (1, "b", 2)])
    assert db.predicates() == {"a", "b"}
    assert Fact("a", (0, 1)) in db


def test_copy_is_independent():
    db = Database.from_edges([(1, 2)])
    db.set_weight(Fact("E", (1, 2)), 3.0)
    clone = db.copy()
    clone.add("E", 5, 6)
    assert len(db) == 1
    assert clone.weight(Fact("E", (1, 2))) == 3.0


def test_tuples_view():
    db = Database.from_edges([(1, 2), (3, 4)])
    assert db.tuples("E") == {(1, 2), (3, 4)}
    assert db.tuples("missing") == frozenset()


def test_repr():
    assert "E:2" in repr(Database.from_edges([(1, 2), (2, 3)]))


# -- derived-view caches (invalidate on mutation) -------------------------


def test_active_domain_cached_and_invalidated_on_add():
    db = Database.from_edges([(1, 2)])
    first = db.active_domain()
    assert first == {1, 2}
    assert db.active_domain() is first  # cached: no rescan between adds
    db.add("E", 2, 3)
    assert db.active_domain() == {1, 2, 3}  # invalidated by the insert
    db.add("E", 1, 2)  # duplicate: nothing changed, cache may survive
    assert db.active_domain() == {1, 2, 3}


def test_valuation_cached_and_invalidated_on_add_and_set_weight():
    db = Database.from_edges([(1, 2), (2, 3)])
    f12, f23 = Fact("E", (1, 2)), Fact("E", (2, 3))
    first = db.valuation(TROPICAL)
    assert first == {f12: TROPICAL.one, f23: TROPICAL.one}
    # Each call returns a private copy: mutating it must not leak into
    # the cache.
    first[f12] = 99.0
    assert db.valuation(TROPICAL)[f12] == TROPICAL.one
    db.set_weight(f12, 5.0)
    assert db.valuation(TROPICAL)[f12] == 5.0  # invalidated by set_weight
    f34 = db.add("E", 3, 4, weight=7.0)
    valuation = db.valuation(TROPICAL)
    assert valuation[f34] == 7.0  # invalidated by add
    assert valuation[f12] == 5.0


def test_valuation_cache_is_per_semiring():
    from repro.semirings import BOOLEAN

    db = Database.from_edges([(1, 2)])
    fact = Fact("E", (1, 2))
    assert db.valuation(TROPICAL)[fact] == 0.0  # tropical 1 is 0.0
    assert db.valuation(BOOLEAN)[fact] is True


def test_valuation_cache_is_bounded():
    from repro.semirings.numeric import CappedCountingSemiring

    db = Database.from_edges([(1, 2)])
    for q in range(1, 3 * Database._VALUATION_CACHE_SIZE):
        db.valuation(CappedCountingSemiring(q))
    assert len(db._valuation_cache) <= Database._VALUATION_CACHE_SIZE


def test_copy_carries_private_symbol_scope():
    from repro.datalog import GLOBAL_SYMBOLS, SymbolTable

    db = Database.from_edges([("copy-scope-u", "copy-scope-v")])
    table = SymbolTable()
    db.columnar_store(symbols=table)
    clone = db.copy()
    assert clone.columnar_store().symbols is table
    assert GLOBAL_SYMBOLS.get("copy-scope-u") is None


def test_facts_iteration_unaffected_by_caching():
    db = Database.from_edges([(2, 3), (1, 2)])
    before = list(db.facts())
    assert list(db.facts()) == before
    db.add("A", 9)
    after = list(db.facts())
    assert len(after) == 3
    assert Fact("A", (9,)) in after


# -- invalidation with a maintainer attached --------------------------------


def test_cached_valuation_survives_unrelated_mutation_with_maintainer():
    """Regression (DESIGN.md §11): with a MaintainedFixpoint attached,
    writes to a relation the query never touches keep the valuation
    and the columnar snapshot correct after every write."""
    from repro.datalog import MaintainedFixpoint, transitive_closure

    db = Database.from_edges([(1, 2), (2, 3)])
    MaintainedFixpoint(transitive_closure(), db)

    assert db.valuation(TROPICAL) == {
        Fact("E", (1, 2)): 0.0,
        Fact("E", (2, 3)): 0.0,
    }

    # Writes against a relation the query never touches.
    db.add("Label", "a", weight=4.0)
    assert db.valuation(TROPICAL)[Fact("Label", ("a",))] == 4.0

    db.set_weight(Fact("Label", ("a",)), 6.0)
    assert db.valuation(TROPICAL)[Fact("Label", ("a",))] == 6.0

    db.retract("Label", "a")
    valuation = db.valuation(TROPICAL)
    assert Fact("Label", ("a",)) not in valuation
    assert valuation[Fact("E", (1, 2))] == 0.0

    # The columnar snapshot follows the write as well.
    db.columnar_store()
    db.add("Label", "b")
    store = db.columnar_store()
    assert store.relation("Label") is not None and len(store.relation("Label")) == 1


def test_null_reweight_patches_valuation_as_one_with_maintainer():
    """``set_weight(f, None)`` un-annotates *f*: the in-place-patched
    valuation of a database with a maintainer attached must read it as
    the semiring's ``1``, exactly like a detached database's rebuilt
    valuation."""
    from repro.datalog import MaintainedFixpoint, transitive_closure

    attached = Database.from_edges([(1, 2), (2, 3)], weights={(1, 2): 4.0, (2, 3): 5.0})
    detached = attached.copy()
    MaintainedFixpoint(transitive_closure(), attached)
    for db in (attached, detached):
        db.valuation(TROPICAL)
        db.set_weight(Fact("E", (1, 2)), None)
    assert attached.valuation(TROPICAL) == detached.valuation(TROPICAL)
    assert attached.valuation(TROPICAL)[Fact("E", (1, 2))] == TROPICAL.one


def test_wholesale_invalidation_without_maintainer():
    """Without a maintainer the historical behavior stands: any write
    drops the cached valuation wholesale."""
    db = Database.from_edges([(1, 2)])
    db.valuation(TROPICAL)
    db.add("Label", "a")
    assert not db._valuation_cache
    db.valuation(TROPICAL)
    db.retract("Label", "a")
    assert not db._valuation_cache


def test_detached_maintainer_restores_wholesale_invalidation():
    from repro.datalog import MaintainedFixpoint, transitive_closure

    db = Database.from_edges([(1, 2)])
    fix = MaintainedFixpoint(transitive_closure(), db)
    db.valuation(TROPICAL)
    fix.detach()
    db.add("E", 2, 3)
    assert not db._valuation_cache
