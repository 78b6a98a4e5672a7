"""The interned columnar fact store and the ``engine="columnar"`` backend.

Two layers are pinned here (DESIGN.md §8):

* the storage primitives of ``repro.datalog.store`` -- symbol-table
  interning, arity-checked columnar writers, hash pattern indexes
  (hypothesis-checked against a brute-force filter, including rows
  appended *after* an index was built, with every run ascending), and
  delta views;
* the columnar join engine on inputs the store makes special --
  mixed arities, rule constants the store never interned, scoped and
  private symbol tables -- plus the probe regression the benchmarks
  assert.  The oracle-vs-fast equivalence over generated inputs lives
  in ``tests/datalog/test_grounding_engines.py``.
"""

import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import (
    ColumnarStore,
    Database,
    DatalogError,
    Fact,
    FixpointEngine,
    SymbolTable,
    count_join_probes,
    derivable_facts,
    relevant_grounding,
    scoped_symbols,
    transitive_closure,
)
from repro.datalog.store import ColumnarRelation
from repro.semirings import BOOLEAN
from repro.workloads import random_digraph, random_weights
from tests.oracle import NAIVE_ENGINE, examples

TC = transitive_closure()


def rule_set(ground):
    return ground.rule_keys()


def assert_engines_agree(program, db):
    grounds = {
        engine: relevant_grounding(program, db, config={"engine": engine})
        for engine in ("naive", "columnar")
    }
    reference = rule_set(grounds["naive"])
    for engine, ground in grounds.items():
        assert rule_set(ground) == reference, engine
        assert len(ground) == len(rule_set(ground)), engine
        assert ground.idb_facts == grounds["naive"].idb_facts, engine


# -- symbol table ---------------------------------------------------------


def test_symbol_table_interning_is_idempotent_and_dense():
    table = SymbolTable()
    a = table.intern("a")
    b = table.intern("b")
    assert table.intern("a") == a
    assert (a, b) == (0, 1)
    assert len(table) == 2
    assert table.decode(a) == "a"
    assert table.decode_row((b, a)) == ("b", "a")
    assert "a" in table and "c" not in table


def test_symbol_table_get_does_not_insert():
    table = SymbolTable()
    assert table.get("missing") is None
    assert table.get_row(("missing",)) is None
    assert len(table) == 0
    table.intern("x")
    assert table.get("x") == 0
    assert table.get_row(("x", "y")) is None  # any miss -> None
    assert len(table) == 1


def test_symbol_table_mixed_hashable_constants():
    # NB: 0/False and 1/True are equal as dict keys, so they intern to
    # one id -- the same conflation Python's tuple-sets (the Database
    # layout) already apply; ids must distinguish everything else.
    table = SymbolTable()
    ids = table.intern_row((0, "0", (1, 2), None))
    assert len(set(ids)) == 4  # no value collisions across types
    assert table.decode_row(ids) == (0, "0", (1, 2), None)
    assert table.intern(False) == table.intern(0)


# -- columnar relations and pattern indexes -------------------------------


def test_relation_append_dedups_and_checks_arity():
    store = ColumnarStore(SymbolTable())
    assert store.insert_fact(Fact("E", (1, 2)))
    assert not store.insert_fact(Fact("E", (1, 2)))
    assert store.size("E") == 1
    # Direct relation writers are arity-checked...
    with pytest.raises(DatalogError):
        store.relation("E").append((0, 1, 2))
    # ... but the store keys relations by (predicate, arity), so a
    # database holding one predicate at two arities (legal for inputs,
    # illegal in programs) lands in two relations instead of clashing.
    assert store.insert_fact(Fact("E", (1, 2, 3)))
    assert store.size("E", 2) == 1 and store.size("E", 3) == 1
    assert store.size("E") == 2
    assert store.relation("E") is None  # ambiguous without an arity
    assert store.relation("E", 2) is not None
    assert store.contains_fact(Fact("E", (1, 2)))
    assert store.contains_fact(Fact("E", (1, 2, 3)))
    assert set(store.facts("E")) == {Fact("E", (1, 2)), Fact("E", (1, 2, 3))}



def test_extend_checks_the_whole_batch_before_writing():
    relation = ColumnarRelation("E", 2)
    relation.extend([(0, 1)])
    index = relation.index_for((0,))
    runs = {key: list(run) for key, run in index.runs.items()}
    with pytest.raises(DatalogError, match="arity clash"):
        relation.extend([(1, 2), (2, 3, 4), (3, 4)])
    # The clash sits mid-batch: the rows before it were not written.
    assert len(relation) == 1
    assert list(relation.id_rows()) == [(0, 1)]
    assert [list(column) for column in relation.columns] == [[0], [1]]
    assert relation.row_index((1, 2)) is None
    assert relation.lookup((0,), 1) == []
    assert {key: list(run) for key, run in index.runs.items()} == runs


def test_extend_drops_resident_and_repeated_rows():
    relation = ColumnarRelation("E", 2)
    assert relation.extend([(0, 1), (1, 2)]) == 2
    assert relation.extend([(1, 2), (2, 3), (2, 3), (0, 1), (3, 4)]) == 2
    assert relation.extend([(3, 4), (3, 4)]) == 0
    assert list(relation.id_rows()) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert [relation.row_index(row) for row in relation.id_rows()] == [0, 1, 2, 3]


def test_append_is_the_one_row_extend():
    relation = ColumnarRelation("E", 2)
    assert relation.append((0, 1)) == 0
    assert relation.append((1, 2)) == 1
    assert relation.append((0, 1)) is None
    assert len(relation) == 2
    with pytest.raises(DatalogError, match="arity clash"):
        relation.append((1,))
    assert len(relation) == 2


@given(
    seed=st.integers(0, 100_000),
    arity=st.integers(1, 3),
    committed=st.integers(0, 48),
    batches=st.lists(st.integers(0, 24), min_size=1, max_size=8),
)
@settings(max_examples=examples(80), deadline=None)
def test_extend_matches_one_row_appends(seed, arity, committed, batches):
    """Random batches through ``extend`` leave the same columns, row
    index and pattern-index lookups as the same rows appended one at a
    time, on indexes built before later batches arrive."""
    rng = random.Random(seed)
    domain = 2 + arity * 2

    def rows(count):
        return [tuple(rng.randrange(domain) for _ in range(arity)) for _ in range(count)]

    batched, single = ColumnarRelation("R", arity), ColumnarRelation("R", arity)
    patterns = [
        positions
        for size in range(1, arity + 1)
        for positions in itertools.combinations(range(arity), size)
    ]
    for batch in [rows(committed), *map(rows, batches)]:
        added = batched.extend(batch)
        appended = [single.append(row) for row in batch]
        assert added == sum(row is not None for row in appended)
        assert batched.columns == single.columns
        assert batched._row_index == single._row_index
        for positions in patterns:
            batched.index_for(positions)
            single.index_for(positions)
            for row in batched.id_rows():
                key = row[positions[0]] if len(positions) == 1 else tuple(row[p] for p in positions)
                assert batched.lookup(positions, key) == single.lookup(positions, key)


def assert_runs_partition_and_ascend(relation, positions):
    """The index's runs partition the relation's rows by key, and every
    run ascends: the order a kernel's windowed ``bisect_left`` cut
    relies on."""
    runs = relation.index_for(positions).runs
    assert sorted(row for run in runs.values() for row in run) == list(range(len(relation)))
    for key, run in runs.items():
        assert all(a < b for a, b in zip(run, run[1:])), (positions, key)
        for row in run:
            ids = relation.row(row)
            assert (ids[positions[0]] if len(positions) == 1 else tuple(ids[p] for p in positions)) == key


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_index_runs_ascend_after_build_extend_and_rebuild(arity):
    """Runs ascend after a build, after batches appended to a built
    index, and after a removal drops the index and it rebuilds."""
    rng = random.Random(arity)
    relation = ColumnarRelation("R", arity)
    patterns = [
        positions
        for size in range(1, arity + 1)
        for positions in itertools.combinations(range(arity), size)
    ]

    def rows(count):
        return [tuple(rng.randrange(4) for _ in range(arity)) for _ in range(count)]

    def check():
        for positions in patterns:
            assert_runs_partition_and_ascend(relation, positions)

    relation.extend(rows(30))
    check()  # the build
    for _ in range(6):
        relation.extend(rows(rng.randrange(1, 12)))
        check()  # appends to the built runs
    for ids in rng.sample(list(relation.id_rows()), len(relation) // 2):
        assert relation.remove(ids)
    assert not relation._indexes  # a removal drops every index ...
    check()  # ... and the rebuild ascends again
    relation.extend(rows(8))
    check()


def test_mixed_arity_database_grounds_like_the_other_engines():
    # Wrong-arity tuples of a program predicate must simply never
    # match, not crash the columnar materialization (regression: the
    # store once fixed a predicate's arity at first insert).
    db = Database.from_edges([(1, 2), (2, 3)])
    db.add("E", 7, 8, 9)
    db.add("T", 4)
    assert_engines_agree(TC, db)
    naive_facts, _ = derivable_facts(TC, db, config=NAIVE_ENGINE)
    columnar_facts, _ = derivable_facts(TC, db)
    assert naive_facts == columnar_facts


def test_store_contains_and_decode_roundtrip():
    store = ColumnarStore(SymbolTable())
    facts = [Fact("E", (1, 2)), Fact("E", (2, 3)), Fact("A", ("x",))]
    for fact in facts:
        store.insert_fact(fact)
    for fact in facts:
        assert store.contains_fact(fact)
    assert not store.contains_fact(Fact("E", (3, 1)))
    assert not store.contains_fact(Fact("E", (1, "never-interned")))
    assert not store.contains_fact(Fact("missing", (1,)))
    assert set(store.facts()) == set(facts)
    assert set(store.facts("E")) == {Fact("E", (1, 2)), Fact("E", (2, 3))}
    assert len(store) == 3


@given(
    seed=st.integers(0, 10_000),
    arity=st.integers(1, 3),
    rows=st.integers(1, 60),
    extra=st.integers(0, 30),
)
@settings(max_examples=examples(60), deadline=None)
def test_pattern_index_matches_bruteforce_filter(seed, arity, rows, extra):
    """Index lookups must agree with a full scan, for every
    bound-position pattern, before and after post-build appends."""
    rng = random.Random(seed)
    store = ColumnarStore(SymbolTable())
    domain = range(max(2, rows // 4))

    def random_row():
        return tuple(rng.choice(domain) for _ in range(arity))

    for _ in range(rows):
        store.insert_fact(Fact("R", random_row()))
    relation = store.relation("R")

    positions = tuple(
        sorted(rng.sample(range(arity), rng.randint(1, arity)))
    )
    # Build the index now, then append more rows: the appends to its
    # runs must keep lookups exact.
    relation.index_for(positions)
    for _ in range(extra):
        store.insert_fact(Fact("R", random_row()))

    all_rows = list(relation.id_rows())
    probe = rng.choice(all_rows)
    key = probe[positions[0]] if len(positions) == 1 else tuple(probe[p] for p in positions)
    got = sorted(relation.row(i) for i in relation.lookup(positions, key))
    want = sorted(
        row
        for row in all_rows
        if all(row[p] == (key if len(positions) == 1 else key[at]) for at, p in enumerate(positions))
    )
    assert got == want


@given(
    seed=st.integers(0, 100_000),
    arity=st.integers(1, 3),
    nops=st.integers(1, 120),
)
@settings(max_examples=examples(60), deadline=None)
def test_pattern_index_interleaved_ops_match_reference(seed, arity, nops):
    """Interleaved appends, pattern lookups and delta reads against a
    naive reference model.

    The build path (index constructed over a finished relation) is
    exercised everywhere; this drives the *append* path instead:
    lookups keep landing between appends, so runs are probed at every
    fill level, interleaved with watermark/delta reads over the same
    append log.
    """
    rng = random.Random(seed)
    store = ColumnarStore(SymbolTable())
    reference: list = []  # deduplicated id rows in append order
    resident = set()
    marks: list = []  # (watermark, reference length when taken)
    relation = None

    def random_row():
        return tuple(store.symbols.intern(rng.randrange(6)) for _ in range(arity))

    for _ in range(nops):
        action = rng.random()
        if action < 0.5 or relation is None:
            row = random_row()
            store.insert_ids("R", row)
            if row not in resident:
                resident.add(row)
                reference.append(row)
            relation = store.relation("R", arity)
        elif action < 0.85:
            positions = tuple(sorted(rng.sample(range(arity), rng.randint(1, arity))))
            if reference and rng.random() < 0.7:
                probe = rng.choice(reference)
                key_values = tuple(probe[p] for p in positions)
            else:
                key_values = tuple(rng.randrange(6) for _ in positions)
            key = key_values[0] if len(positions) == 1 else key_values
            got = sorted(relation.row(i) for i in relation.lookup(positions, key))
            want = sorted(
                row
                for row in reference
                if all(row[p] == kv for p, kv in zip(positions, key_values))
            )
            assert got == want, (positions, key)
        elif action < 0.95:
            marks.append((store.watermark(), len(reference)))
        elif marks:
            mark, at = marks.pop(rng.randrange(len(marks)))
            views = store.deltas_since(mark)
            got = sorted(row for view in views.values() for row in view.id_rows())
            assert got == sorted(reference[at:])

    # Closing sweep: every index the run built must still agree with a
    # full scan on every row's key.
    if relation is not None:
        for positions in list(relation._indexes):
            for row in reference:
                key_values = tuple(row[p] for p in positions)
                key = key_values[0] if len(positions) == 1 else key_values
                got = sorted(relation.row(i) for i in relation.lookup(positions, key))
                want = sorted(
                    r
                    for r in reference
                    if all(r[p] == kv for p, kv in zip(positions, key_values))
                )
                assert got == want


def test_pattern_index_empty_positions_scans_everything():
    store = ColumnarStore(SymbolTable())
    for u, v in [(1, 2), (2, 3), (3, 4)]:
        store.insert_fact(Fact("E", (u, v)))
    relation = store.relation("E")
    assert sorted(relation.lookup((), ())) == [0, 1, 2]


def test_pattern_index_miss_returns_empty():
    store = ColumnarStore(SymbolTable())
    store.insert_fact(Fact("E", (1, 2)))
    relation = store.relation("E")
    sid = store.symbols.intern(99)
    assert relation.lookup((0,), sid) == []


# -- delta views ----------------------------------------------------------


def test_watermark_and_delta_views():
    store = ColumnarStore(SymbolTable())
    store.insert_fact(Fact("E", (1, 2)))
    mark = store.watermark()
    assert store.deltas_since(mark) == {}
    store.insert_fact(Fact("E", (2, 3)))
    store.insert_fact(Fact("E", (1, 2)))  # duplicate: must not enter a delta
    store.insert_fact(Fact("T", (1, 3)))
    deltas = store.deltas_since(mark)
    assert set(deltas) == {("E", 2), ("T", 2)}  # keyed by (predicate, arity)
    assert len(deltas[("E", 2)]) == 1 and len(deltas[("T", 2)]) == 1
    assert list(deltas[("E", 2)].facts(store.symbols)) == [Fact("E", (2, 3))]
    assert deltas[("T", 2)].predicate == "T"


def test_store_copy_is_independent_and_shares_symbols():
    store = ColumnarStore(SymbolTable())
    store.insert_fact(Fact("E", (1, 2)))
    clone = store.copy()
    assert clone.symbols is store.symbols
    clone.insert_fact(Fact("E", (2, 3)))
    assert store.size("E") == 1 and clone.size("E") == 2
    assert store.contains_fact(Fact("E", (1, 2)))
    assert not store.contains_fact(Fact("E", (2, 3)))


def test_columnar_store_pickle_round_trip():
    """A store survives a pickle round trip: symbol ids, rows and
    interning behaviour come back intact."""
    db = random_digraph(6, 14, seed=19)
    store = db.columnar_store()
    clone = pickle.loads(pickle.dumps(store))
    assert len(clone.symbols) == len(store.symbols)
    for symbol in range(len(store.symbols)):
        assert clone.symbols.decode(symbol) == store.symbols.decode(symbol)
    for predicate in store.predicates():
        relation, other = store.relation(predicate), clone.relation(predicate)
        assert other.columns == relation.columns
        assert len(other) == len(relation)
    # Interning a fresh constant stays deterministic and local.
    assert store.symbols.intern("fresh-constant") == clone.symbols.intern("fresh-constant")


# -- the Database façade --------------------------------------------------


def test_database_materializes_columnar_store_lazily():
    db = Database.from_edges([(1, 2), (2, 3)])
    store = db.columnar_store()
    assert store is db.columnar_store()  # cached
    assert store.size("E") == 2
    assert set(store.facts()) == set(db.facts())
    db.add("E", 3, 4)
    fresh = db.columnar_store()
    assert fresh is not store  # invalidated on add
    assert fresh.size("E") == 3


# -- engine equivalence ---------------------------------------------------


def test_columnar_boolean_fixpoint_on_weighted_workload():
    database = random_digraph(20, 60, seed=11)
    weights = random_weights(database, seed=11)
    a = FixpointEngine().evaluate(
        TC, database, BOOLEAN, weights={f: True for f in weights}
    )
    b = FixpointEngine(config=NAIVE_ENGINE).evaluate(
        TC, database, BOOLEAN, weights={f: True for f in weights}
    )
    assert a.values == b.values


def test_rule_constants_unknown_to_store_never_match_or_intern():
    """A body constant the store has never interned can match no row;
    the columnar engine must ground identically to naive without
    growing the shared symbol table (lookups use the non-inserting
    SymbolTable.get)."""
    from repro.datalog import GLOBAL_SYMBOLS, parse_program

    program = parse_program("T(X, Y) :- E(X, Y), E(Y, 99).", target="T")
    db = Database.from_edges([(1, 2), (2, 3)])
    db.columnar_store()  # materialize first so growth isolates the grounder
    before = len(GLOBAL_SYMBOLS)
    assert len(relevant_grounding(program, db)) == 0
    assert len(relevant_grounding(program, db, config=NAIVE_ENGINE)) == 0
    assert len(GLOBAL_SYMBOLS) == before
    assert GLOBAL_SYMBOLS.get(99) is None

    # ... and when the constant is present, the engines agree as usual.
    db2 = Database.from_edges([(1, 2), (2, 99)])
    assert_engines_agree(program, db2)


def test_head_constants_chain_into_body_lookups():
    """A constant introduced only by a rule head must still be
    matchable by other bodies (heads are interned before any join)."""
    from repro.datalog import parse_program

    program = parse_program(
        """
        P(X, 777) :- E(X, Y).
        Q(Z) :- P(Z, 777).
        """,
        target="Q",
    )
    db = Database.from_edges([(1, 2), (2, 3)])
    naive_facts, _ = derivable_facts(program, db, config=NAIVE_ENGINE)
    columnar_facts, _ = derivable_facts(program, db)
    assert naive_facts == columnar_facts
    assert Fact("Q", (1,)) in columnar_facts


def test_symbol_table_clear_resets_in_place():
    table = SymbolTable()
    ids = table.intern_row(("a", "b", (1, 2)))
    assert len(table) == 3 and len(set(ids)) == 3
    table.clear()
    assert len(table) == 0
    assert table.get("a") is None
    assert "b" not in table
    # Dense ids restart from 0: the table object itself survives.
    assert table.intern("c") == 0


def test_scoped_symbols_keeps_default_table_clean():
    """The GLOBAL_SYMBOLS leak regression (ISSUE 5): a workload run
    inside scoped_symbols() must not intern a single constant into the
    surrounding default table, across every columnar entry point."""
    from repro.datalog import GLOBAL_SYMBOLS, columnar_grounding, default_symbols

    outer = default_symbols()
    outer_before = len(outer)
    global_before = len(GLOBAL_SYMBOLS)
    with scoped_symbols() as table:
        assert default_symbols() is table
        db = Database.from_edges([("scoped-only-u", "scoped-only-v")])
        store = db.columnar_store()
        assert store.symbols is table
        assert len(relevant_grounding(TC, db)) == 1
        assert len(columnar_grounding(TC, db)) == 1
        assert len(table) > 0
    assert default_symbols() is outer
    assert len(outer) == outer_before
    assert len(GLOBAL_SYMBOLS) == global_before
    assert GLOBAL_SYMBOLS.get("scoped-only-u") is None
    # Objects built inside the scope stay usable after exit.
    assert store.contains_fact(Fact("E", ("scoped-only-u", "scoped-only-v")))


def test_scoped_symbols_nests_and_accepts_explicit_table():
    from repro.datalog import default_symbols

    mine = SymbolTable()
    with scoped_symbols() as outer:
        assert default_symbols() is outer
        with scoped_symbols(mine) as inner:
            assert inner is mine
            assert default_symbols() is mine
            ColumnarStore().insert_fact(Fact("E", ("nested-constant",)))
        assert default_symbols() is outer
        assert outer.get("nested-constant") is None
    assert mine.get("nested-constant") is not None


def test_columnar_store_private_symbol_table_sticks():
    from repro.datalog import GLOBAL_SYMBOLS

    table = SymbolTable()
    db = Database.from_edges([("private-only-u", "private-only-v")])
    store = db.columnar_store(symbols=table)
    assert store.symbols is table and len(table) == 2
    assert GLOBAL_SYMBOLS.get("private-only-u") is None
    # The table sticks: later no-arg materializations (what the
    # columnar grounding engine triggers internally) reuse it, across
    # cache invalidations too.
    assert db.columnar_store(symbols=table) is store
    assert db.columnar_store() is store
    db.add("E", "private-only-u", "private-only-w")
    assert db.columnar_store().symbols is table
    assert GLOBAL_SYMBOLS.get("private-only-w") is None
    ground = relevant_grounding(TC, db)
    assert len(ground) > 0
    assert GLOBAL_SYMBOLS.get("private-only-u") is None  # engine stayed scoped


# -- probe regression -----------------------------------------------------


def test_columnar_probes_halved_vs_naive_on_tc():
    db = random_digraph(24, 72, seed=5)
    naive_probes, _ = count_join_probes(
        lambda: relevant_grounding(TC, db, config=NAIVE_ENGINE)
    )
    columnar_probes, _ = count_join_probes(
        lambda: relevant_grounding(TC, db)
    )
    assert columnar_probes > 0
    assert naive_probes >= 2 * columnar_probes, (naive_probes, columnar_probes)
