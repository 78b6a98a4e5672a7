"""Columnar vs naive grounding engines: equivalence and probe regression.

The columnar engine (slot-compiled id-space joins, selectivity-ordered
bodies, fused semi-naive pass) must be a pure optimization over the
naive oracle: identical groundings (as sets of ground rules),
identical derivable facts and Boolean iteration counts,
identical fixpoint values -- with measurably fewer join probes.
DESIGN.md §8 describes the design; these tests pin its observable
contract.
"""

import ast
import itertools
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ExecutionConfig
from repro.datalog import (
    GROUNDING_STATS,
    Atom,
    Constant,
    Database,
    Fact,
    FixpointEngine,
    MaintainedFixpoint,
    Program,
    Rule,
    SymbolTable,
    Variable,
    count_join_probes,
    derivable_facts,
    dyck1,
    magic_grounding,
    magic_specialize,
    parse_program,
    relevant_grounding,
    same_generation,
    transitive_closure,
)
from repro.datalog import grounding
from repro.semirings import BOOLEAN, TROPICAL
from repro.workloads import random_digraph, random_weights
from repro.workloads.labeled import random_bracket_graph
from tests.datalog.test_generated_programs import programs_with_databases
from tests.oracle import NAIVE_ENGINE, ORACLE, examples

TC = transitive_closure()


def random_edge_db(seed: int, n: int, m: int) -> Database:
    rng = random.Random(seed)
    db = Database()
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            db.add("E", u, v)
    return db


def rule_set(ground):
    return ground.rule_keys()


def assert_same_ground_program(naive, columnar):
    # Same rules as a set, no duplicates on either side, same head index.
    assert rule_set(naive) == rule_set(columnar)
    assert len(naive) == len(columnar)
    assert naive.idb_facts == columnar.idb_facts
    for fact in naive.idb_facts:
        assert {
            (r.rule_index, r.idb_body, r.edb_body) for r in naive.rules_for(fact)
        } == {(r.rule_index, r.idb_body, r.edb_body) for r in columnar.rules_for(fact)}


# -- equivalence properties (seeded random digraphs) ---------------------


@given(
    seed=st.integers(0, 5000),
    n=st.integers(3, 7),
    m=st.integers(3, 14),
    seeded_idbs=st.integers(0, 3),
)
@settings(max_examples=examples(60), deadline=None)
def test_relevant_grounding_engines_agree_tc(seed, n, m, seeded_idbs):
    # seeded_idbs > 0 puts facts for the IDB predicate directly in the
    # input database: instances over them are discoverable in round 0
    # *and* the facts may be re-derived later -- the fused pass must
    # not re-emit their instances (regression: duplicated GroundRules).
    db = random_edge_db(seed, n, m)
    rng = random.Random(seed + 1)
    for _ in range(seeded_idbs):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            db.add("T", u, v)
    assert_same_ground_program(
        relevant_grounding(TC, db, config=NAIVE_ENGINE),
        relevant_grounding(TC, db),
    )


def test_no_duplicate_rules_with_database_idb_facts():
    # Minimal reproducer: T(2,3) is both an input fact and re-derived
    # from E(2,3), so its instance T(2,4) :- T(2,3), E(3,4) is found in
    # round 0 and must not be emitted again when T(2,3) enters a delta.
    db = Database.from_edges([(2, 3), (3, 4)])
    db.add("T", 2, 3)
    naive = relevant_grounding(TC, db, config=NAIVE_ENGINE)
    columnar = relevant_grounding(TC, db)
    assert len(columnar) == len(columnar.rule_keys())
    assert_same_ground_program(naive, columnar)
    naive_facts, naive_iters = derivable_facts(TC, db, config=NAIVE_ENGINE)
    columnar_facts, columnar_iters = derivable_facts(TC, db)
    assert naive_facts == columnar_facts
    assert naive_iters == columnar_iters


@given(seed=st.integers(0, 5000), pairs=st.integers(1, 4))
@settings(max_examples=examples(30), deadline=None)
def test_relevant_grounding_engines_agree_dyck(seed, pairs):
    # Non-linear program: rules with two IDB body atoms exercise the
    # within-round duplicate handling of the fused pass.
    rng = random.Random(seed)
    edges = []
    node = 0
    for _ in range(pairs):
        edges.append((node, "L", node + 1))
        edges.append((node + 1, "R", node + 2))
        node += 2
    for _ in range(pairs):
        u, v = rng.randrange(node + 1), rng.randrange(node + 1)
        if u != v:
            edges.append((u, rng.choice(["L", "R"]), v))
    db = Database.from_labeled_edges(edges)
    assert_same_ground_program(
        relevant_grounding(dyck1(), db, config=NAIVE_ENGINE),
        relevant_grounding(dyck1(), db),
    )


@given(seed=st.integers(0, 5000), n=st.integers(3, 6), m=st.integers(3, 10))
@settings(max_examples=examples(30), deadline=None)
def test_derivable_facts_engines_agree(seed, n, m):
    db = random_edge_db(seed, n, m)
    naive_facts, naive_iters = derivable_facts(TC, db, config=NAIVE_ENGINE)
    columnar_facts, columnar_iters = derivable_facts(TC, db)
    assert naive_facts == columnar_facts
    assert naive_iters == columnar_iters


@given(seed=st.integers(0, 5000), n=st.integers(3, 6), m=st.integers(3, 10))
@settings(max_examples=examples(20), deadline=None)
def test_fixpoint_values_engine_independent(seed, n, m):
    db = random_edge_db(seed, n, m)
    rng = random.Random(seed)
    weights = {fact: float(rng.randint(1, 5)) for fact in db.facts()}
    via_naive = FixpointEngine(config=NAIVE_ENGINE).evaluate(
        TC, db, TROPICAL, weights=weights
    )
    via_columnar = FixpointEngine().evaluate(
        TC, db, TROPICAL, weights=weights
    )
    assert via_naive.values == via_columnar.values
    assert via_naive.iterations == via_columnar.iterations


def test_engines_agree_on_same_generation_and_magic():
    # Non-chain linear program with a 3-atom body, plus the specialized
    # magic program (constants inside rule bodies).
    rng = random.Random(7)
    db = Database()
    for _ in range(12):
        db.add(rng.choice(["Up", "Flat", "Down"]), rng.randrange(6), rng.randrange(6))
    assert_same_ground_program(
        relevant_grounding(same_generation(), db, config=NAIVE_ENGINE),
        relevant_grounding(same_generation(), db),
    )

    graph = random_digraph(14, 24, seed=7)
    assert_same_ground_program(
        magic_grounding(TC, 0, graph, config=ORACLE),
        magic_grounding(TC, 0, graph),
    )


# -- instrumentation and regression --------------------------------------


def test_join_probes_drop_on_magic_chain_program():
    """Regression: the columnar engine must cut join probes at least 2×
    on the magic-set specialized chain program (the Theorem 5.8
    workload; the probes counter is the metric of DESIGN.md §6)."""
    db = random_digraph(30, 60, seed=3)
    magic = magic_specialize(TC, 0)
    naive_probes, _ = count_join_probes(
        lambda: relevant_grounding(magic, db, config=NAIVE_ENGINE)
    )
    columnar_probes, _ = count_join_probes(
        lambda: relevant_grounding(magic, db)
    )
    assert columnar_probes > 0
    assert naive_probes >= 2 * columnar_probes, (naive_probes, columnar_probes)


def test_join_probes_drop_on_tc():
    db = random_digraph(24, 72, seed=5)
    naive_probes, _ = count_join_probes(
        lambda: relevant_grounding(TC, db, config=NAIVE_ENGINE)
    )
    columnar_probes, _ = count_join_probes(
        lambda: relevant_grounding(TC, db)
    )
    assert naive_probes >= 2 * columnar_probes, (naive_probes, columnar_probes)


def test_grounding_stats_counts_ground_rules():
    db = Database.from_edges([(0, 1), (1, 2)])
    GROUNDING_STATS.reset()
    ground = relevant_grounding(TC, db)
    assert GROUNDING_STATS.ground_rules == len(ground)
    assert GROUNDING_STATS.matches <= GROUNDING_STATS.probes


# -- context-local probe capture (the GROUNDING_STATS satellite) ----------


def test_count_join_probes_does_not_touch_the_global_accumulator():
    """The ISSUE 5 stats-pollution regression: a capture is private --
    neither its counts leak into GROUNDING_STATS nor the global's
    prior counts leak into the capture."""
    db = random_digraph(10, 20, seed=0)
    GROUNDING_STATS.reset()
    GROUNDING_STATS.probes = 123_456  # stale noise a capture must not read
    probes, ground = count_join_probes(lambda: relevant_grounding(TC, db))
    assert 0 < probes < 123_456
    assert len(ground) > 0
    assert GROUNDING_STATS.probes == 123_456  # untouched by the capture
    GROUNDING_STATS.reset()


def test_count_join_probes_nested_captures_stay_separate():
    db = random_digraph(10, 20, seed=1)
    solo_columnar, _ = count_join_probes(lambda: relevant_grounding(TC, db))
    solo_naive, _ = count_join_probes(
        lambda: relevant_grounding(TC, db, config=NAIVE_ENGINE)
    )
    assert solo_naive > solo_columnar

    def outer():
        inner, _ = count_join_probes(
            lambda: relevant_grounding(TC, db, config=NAIVE_ENGINE)
        )
        relevant_grounding(TC, db)
        return inner

    outer_probes, inner_probes = count_join_probes(outer)
    # The nested (naive, larger) capture stays out of the outer count.
    assert outer_probes == solo_columnar
    assert inner_probes == solo_naive


def test_count_join_probes_concurrent_runs_do_not_pollute_each_other():
    """Interleaved measurements from concurrent threads each see
    exactly their own run's probes (contextvars isolation)."""
    import threading

    small = random_digraph(8, 16, seed=2)
    big = random_digraph(16, 40, seed=3)
    solo_small, _ = count_join_probes(lambda: relevant_grounding(TC, small))
    solo_big, _ = count_join_probes(lambda: relevant_grounding(TC, big))
    assert solo_small != solo_big
    results = {}

    def measure(name, db, repeats):
        counts = [
            count_join_probes(lambda: relevant_grounding(TC, db))[0]
            for _ in range(repeats)
        ]
        results[name] = counts

    threads = [
        threading.Thread(target=measure, args=("small", small, 4)),
        threading.Thread(target=measure, args=("big", big, 4)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert results["small"] == [solo_small] * 4
    assert results["big"] == [solo_big] * 4


# -- knob validation ------------------------------------------------------


def test_unknown_engine_rejected():
    db = Database.from_edges([(0, 1)])
    with pytest.raises(ValueError):
        relevant_grounding(TC, db, config={"engine": "btree"})
    with pytest.raises(ValueError):
        derivable_facts(TC, db, config={"engine": "btree"})
    with pytest.raises(ValueError):
        FixpointEngine(config={"engine": "btree"})
    with pytest.raises(ValueError, match="expected one of"):
        relevant_grounding(TC, db, config={"engine": "indexed"})


def test_engine_none_resolves_to_default():
    db = Database.from_edges([(0, 1), (1, 2)])
    assert_same_ground_program(
        relevant_grounding(TC, db),
        relevant_grounding(TC, db, config=ExecutionConfig(engine=None)),
    )
    result = FixpointEngine(config=NAIVE_ENGINE).evaluate(TC, db, BOOLEAN)
    assert result.values == FixpointEngine().evaluate(TC, db, BOOLEAN).values


def test_weighted_evaluation_matches_across_engines_at_scale():
    database = random_digraph(20, 60, seed=11)
    weights = random_weights(database, seed=11)
    naive_ground = relevant_grounding(TC, database, config=NAIVE_ENGINE)
    columnar_ground = relevant_grounding(TC, database)
    a = FixpointEngine().evaluate(TC, database, TROPICAL, weights=weights, ground=naive_ground)
    b = FixpointEngine().evaluate(TC, database, TROPICAL, weights=weights, ground=columnar_ground)
    assert a.values == b.values


# -- the generated join kernels ------------------------------------------


def same_generation_forest() -> Database:
    rng = random.Random(11)
    db = Database()
    for child in range(1, 40):
        parent = rng.randrange(child)
        db.add("Up", child, parent)
        db.add("Down", parent, child)
    for _ in range(20):
        db.add("Flat", rng.randrange(40), rng.randrange(40))
    return db


def looped_digraph() -> Database:
    db = random_digraph(12, 30, seed=2)
    for vertex in (0, 3, 7):
        db.add("E", vertex, vertex)
    return db


def ternary_database() -> Database:
    rng = random.Random(4)
    db = Database()
    for _ in range(30):
        db.add("E", rng.randrange(8), rng.randrange(8))
    for _ in range(40):
        db.add("F", rng.randrange(8), rng.randrange(8), rng.randrange(8))
    for vertex in range(0, 8, 2):
        db.add("A", vertex)
    return db


#: ``(probes, matches, ground rules, Boolean rounds)`` of the columnar
#: engine, recorded from the generator-based join the kernels replaced:
#: a kernel that changes a join plan, a join order or the accounting
#: changes one of them.  The last two programs have repeated variables,
#: so their probes and matches differ, and the last one looks up
#: arity-3 atoms on two and three positions.  Dyck's nonlinear rule
#: probes rows the delta window then cuts, so its matches are fewer.
PINNED_ACCOUNTING = [
    ("tc", TC, lambda: random_digraph(24, 72, seed=5), (2376, 2376, 1800, 8)),
    ("dyck", dyck1(), lambda: Database.from_labeled_edges(random_bracket_graph(12, 60, seed=3)), (3342, 2772, 2082, 4)),
    ("same-generation", same_generation(), same_generation_forest, (814, 814, 299, 7)),
    (
        "repeated-variables",
        parse_program("R(X, Y) :- E(X, Y). R(X, Z) :- R(X, Y), E(Y, Z). L(X) :- R(X, X). M(X, Y) :- L(X), E(Y, Y)."),
        looped_digraph,
        (1034, 583, 440, 8),
    ),
    (
        "ternary",
        parse_program(
            "T(X, Y, Z) :- E(X, Y), E(Y, Z). U(X, Z) :- T(X, Y, Z), T(Y, Z, X), F(X, Y, Z). V(X) :- F(X, Y, X), A(Y)."
        ),
        ternary_database,
        (251, 236, 70, 2),
    ),
]


@pytest.mark.parametrize("program, database, pinned", [case[1:] for case in PINNED_ACCOUNTING],
                         ids=[case[0] for case in PINNED_ACCOUNTING])
def test_join_kernels_reproduce_the_pinned_accounting(program, database, pinned):
    db = database()
    GROUNDING_STATS.reset()
    ground = relevant_grounding(program, db)
    got = (GROUNDING_STATS.probes, GROUNDING_STATS.matches, len(ground), ground.iterations)
    GROUNDING_STATS.reset()
    assert got == pinned


class CountingTable(dict):
    """A fact table that counts its ``get`` reads."""

    reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)


def counting_grounder(program, db):
    """A grounder whose fact tables count the kernels' reads."""
    with mock.patch.object(
        grounding.ColumnarGroundProgram,
        "fact_table",
        lambda self, predicate: self._fact_ids.setdefault(predicate, CountingTable()),
    ):
        return grounding._ColumnarProgramGrounder(program, db)


def test_tc_delta_kernel_reads_its_seed_atom_once_per_delta_row():
    """``T(X, Z) :- T(X, Y), E(Y, Z)`` seeded by the ``T`` delta binds
    the seed atom's slots at the outer level, so its fact id is read
    there, once per delta row, and not once per ground rule."""
    grounder = counting_grounder(TC, random_digraph(24, 72, seed=5))
    cground = grounder.cground
    fresh = grounder.round(None)
    table = cground._fact_ids["T"]
    table.reads = 0
    first = len(cground)
    grounder.saturate(fresh)
    emitted = len(cground) - first
    # Every derived T fact is one delta row of the seed; the head
    # T(X, Z) is read once per emitted rule.
    assert emitted > 2 * len(grounder.derived)
    assert table.reads == len(grounder.derived) + emitted


def assert_interned_once(ground):
    """Every fact id is a distinct fact some ground rule mentions."""
    mentioned = set(ground.rule_head)
    for row in (*ground.idb_rows, *ground.edb_rows):
        mentioned.update(row)
    assert mentioned == set(range(ground.fact_count))
    assert len(set(zip(ground.fact_preds, ground.fact_rows))) == ground.fact_count


def test_hoisted_reads_intern_only_facts_an_emitted_rule_mentions():
    """``A`` is the outer atom and most of its rows find no ``B``
    partner: their hoisted reads miss, and none is interned."""
    program = parse_program("P(X, Z) :- A(X, Y), B(Y, Z).")
    db = Database()
    for x in range(12):
        db.add("A", x, x % 6)
    for z in range(40):
        db.add("B", 0, z)
    ground = relevant_grounding(program, db)
    assert_interned_once(ground)
    assert ground.fact_count == 2 + 40 + 80  # A(0, 0), A(6, 0), the B rows, the P heads
    assert ground.rule_keys() == relevant_grounding(program, db, config=NAIVE_ENGINE).rule_keys()


def test_a_hoisted_read_that_missed_reads_again_before_it_interns():
    """``A(X, X)`` is read when ``C(X)`` binds ``X``, before any rule
    mentions it; the innermost level then interns ``A(Y, X)`` first in
    body order, and for ``Y = X`` that is the same row, so the second
    atom must find the id the first one just took."""
    program = parse_program("P(X) :- A(Y, X), A(X, X), C(X).")
    db = Database()
    for row in ((1, 1), (2, 1)):
        db.add("A", *row)
    db.add("C", 1)
    ground = relevant_grounding(program, db)
    assert_interned_once(ground)
    assert ground.rule(0).edb_body == (Fact("A", (1, 1)), Fact("A", (1, 1)), Fact("C", (1,)))
    assert ground.rule_keys() == relevant_grounding(program, db, config=NAIVE_ENGINE).rule_keys()


def test_a_plan_past_one_part_reads_its_atoms_in_the_last_part():
    """A plan longer than ``_LOOPS_PER_PART`` materializes its bindings
    at the part boundary, which carries slots only: every fact-table
    read sits after the last part's header, never above it."""
    length = grounding._LOOPS_PER_PART + 2
    xs = [Variable(f"X{i:02d}") for i in range(length + 1)]
    program = Program([Rule(Atom("P", (xs[0], xs[-1])), [Atom("E", (xs[i], xs[i + 1])) for i in range(length)])])
    db = Database.from_edges([(i, i + 1) for i in range(length + 4)])
    (source,) = recorded_kernel_sources(program, db)
    lines = source.splitlines()
    (header,) = [at for at, line in enumerate(lines) if line.endswith(f" in part{length - 2}:")]
    reads = [at for at, line in enumerate(lines) if ".get(row" in line]
    assert len(reads) > length and min(reads) > header
    ground = relevant_grounding(program, db)
    assert len(ground) == 5
    assert_interned_once(ground)
    assert ground.rule_keys() == relevant_grounding(program, db, config=NAIVE_ENGINE).rule_keys()


def assert_found_once(ground, program, db):
    """No ground rule emitted twice, the naive engine's rules, and every
    fact id a distinct fact some rule mentions."""
    assert len(ground) == len(ground.rule_keys())
    assert ground.rule_keys() == relevant_grounding(program, db, config=NAIVE_ENGINE).rule_keys()
    assert_interned_once(ground)


def chain_and_loops() -> Database:
    db = Database.from_edges([(i, i + 1) for i in range(9)] + [(3, 3), (7, 2)])
    for vertex in (0, 4):
        db.add("A", vertex)
    return db


def one_self_loop() -> Database:
    return Database.from_edges([("a", "a"), ("a", "b"), ("b", "a")])


#: Rules with several body atoms over relations that have a delta in
#: the same round: each round seeds them once per such atom, and the
#: atoms before the seed read only their relation's old rows.
SPLIT_CASES = [
    ("dyck", dyck1(), lambda: Database.from_labeled_edges(random_bracket_graph(12, 60, seed=3))),
    (
        "three-atom-chain",
        parse_program("P(X, Y) :- E(X, Y). P(X, W) :- P(X, Y), P(Y, Z), P(Z, W)."),
        lambda: random_digraph(9, 16, seed=4),
    ),
    # Both atoms bind the one delta row ``S(a, a)``.
    ("self-join-on-one-fact", parse_program("S(X, Y) :- E(X, Y). Q(X) :- S(X, Y), S(Y, X)."), one_self_loop),
    # ``U(X)`` shares no slot with the seed ``U(Y)``: a windowed full scan.
    (
        "cross-product",
        parse_program("U(X) :- A(X). U(Y) :- U(X), E(X, Y). C(X, Y) :- U(X), U(Y), E(Y, Y)."),
        chain_and_loops,
    ),
]


@pytest.mark.parametrize("program, database", [case[1:] for case in SPLIT_CASES], ids=[case[0] for case in SPLIT_CASES])
def test_a_round_finds_each_ground_rule_once(program, database):
    db = database()
    assert_found_once(relevant_grounding(program, db), program, db)


def test_a_ground_rule_is_found_at_its_first_delta_atom_in_body_order():
    """All three ``S`` rows are new in round 1, so every ``Q`` rule has
    both body atoms in the delta: the join seeded at the first atom
    finds them all, in its loop order over the delta rows, and the
    join seeded at the second finds none.  Fact ids, and a head's
    first rule, follow this order."""
    program = parse_program("S(X, Y) :- E(X, Y). Q(X) :- S(X, Y), S(Y, X).")
    db = one_self_loop()
    db.columnar_store(SymbolTable())
    ground = relevant_grounding(program, db)
    rules = [ground.rule(position) for position in range(len(ground))]
    aa, ab, ba = Fact("S", ("a", "a")), Fact("S", ("a", "b")), Fact("S", ("b", "a"))
    assert [rule.idb_body for rule in rules if rule.rule_index == 1] == [(aa, aa), (ab, ba), (ba, ab)]


def test_a_maintainer_finds_each_ground_rule_of_an_edb_self_join_once():
    """Each insert is the one delta row of ``E``, which both body atoms
    read; a self-loop is a binding with both atoms on that row."""
    program = parse_program("Q(X, Z) :- E(X, Y), E(Y, Z).")
    db = Database.from_edges([(0, 1), (1, 2)])
    fix = MaintainedFixpoint(program, db)
    for edge in ((2, 2), (2, 0), (1, 1), (0, 0), (3, 3)):
        fix.insert(Fact("E", edge))
    ground = fix.cground
    assert_found_once(ground, program, db)
    assert ground.rule_keys() == relevant_grounding(program, db).rule_keys()


#: Every identifier a kernel source may hold: fixed names, plus fixed
#: prefixes numbered by slot, level, atom or constant position.
KERNEL_NAMES = frozenset(
    grounding._KERNEL_ARGS.replace(" ", "").split(",")
    + "_join probes matches key emitted start stop len range bisect_left".split()
    + "fact_preds fact_rows unit_rows rule_head rule_no idb_rows edb_rows".split()
    + "preds_append rows_append units_append head_append idb_append edb_append fresh_add".split()
)
KERNEL_NUMBERED = re.compile(r"(?:s|k|x|r|n|b|runs|cols|t|p|f|row|part)\d+|c\d+_\d+")
KERNEL_ATTRIBUTES = frozenset({"add", "append", "get", "extend"})

#: Constants and predicates that must never reach a kernel's source.
HOSTILE = "'); __import__('os').system('echo pwned') #"


def hostile_program():
    x, y = Variable("X"), Variable("Y")
    edge = HOSTILE + "E"
    program = Program([
        Rule(Atom(HOSTILE, (x, Constant(HOSTILE))), [Atom(edge, (x, y)), Atom(edge, (y, Constant("\n" + HOSTILE)))]),
        Rule(Atom(HOSTILE, (y, Constant(HOSTILE))), [Atom(HOSTILE, (x, Constant(HOSTILE))), Atom(edge, (x, y))]),
    ])
    db = Database()
    for u, v in ((0, 1), (1, "\n" + HOSTILE), (1, 2)):
        db.add(edge, u, v)
    return program, db


def assert_kernel_source_is_inert(source: str) -> None:
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant):
            assert node.value is None or type(node.value) is int, source
        elif isinstance(node, ast.Name):
            assert node.id in KERNEL_NAMES or KERNEL_NUMBERED.fullmatch(node.id), (node.id, source)
        elif isinstance(node, ast.arg):
            assert node.arg in KERNEL_NAMES, (node.arg, source)
        elif isinstance(node, ast.Attribute):
            assert node.attr in KERNEL_ATTRIBUTES, (node.attr, source)
        elif isinstance(node, ast.FunctionDef):
            assert node.name == "_join", source


def recorded_kernel_sources(program, db, insert=None):
    """Every kernel source grounding *program* writes, and a
    maintainer's after *insert*."""
    sources = []
    write = grounding._kernel_source

    def recording(*args):
        source, consts = write(*args)
        sources.append(source)
        return source, consts

    with mock.patch.object(grounding, "_kernel_source", recording):
        relevant_grounding(program, db)
        if insert is not None:
            MaintainedFixpoint(program, db).insert(insert)
    return sources


def test_kernel_sources_hold_no_program_text():
    program, db = hostile_program()
    sources = recorded_kernel_sources(program, db, insert=Fact(HOSTILE + "E", (2, "\n" + HOSTILE)))
    assert len(sources) >= 4  # round 0, delta and maintainer kernels
    for source in sources:
        assert "pwned" not in source
        assert_kernel_source_is_inert(source)


@given(programs_with_databases(), st.sampled_from([(0, 3), (3, 1), (2, 2)]))
@settings(max_examples=examples(60), deadline=None)
def test_generated_kernel_sources_hold_only_ints_and_fixed_names(pair, edge):
    program, db = pair
    db = db.copy()
    db.columnar_store(SymbolTable())
    for source in recorded_kernel_sources(program, db, insert=Fact("E", edge)):
        assert_kernel_source_is_inert(source)


def test_module_level_caches_stay_bounded():
    """Ground 300 programs of distinct shapes -- one ``G/6`` atom per
    pattern of variables (named in order of first occurrence) and a
    constant -- and check that no module-level container of the
    grounding module grows, and that the kernel cache stays within its
    bound although the shapes outnumber it."""

    def containers():
        return {name: len(value) for name, value in vars(grounding).items() if isinstance(value, (dict, list, set))}

    def canonical(pattern):
        names = list(dict.fromkeys(term for term in pattern if term != "0"))
        return names == ["X", "Y", "Z"][: len(names)] and "X" in names

    db = Database()
    for row in itertools.product((0, 1), repeat=6):
        db.add("G", *row)
    terms = {"X": Variable("X"), "Y": Variable("Y"), "Z": Variable("Z"), "0": Constant(0)}
    shapes = [p for p in itertools.product("XYZ0", repeat=6) if canonical(p)][:300]
    grounding._compile_kernel.cache_clear()
    before = containers()
    for shape in shapes:
        program = Program([Rule(Atom("P", (terms["X"],)), [Atom("G", tuple(terms[t] for t in shape))])])
        assert len(relevant_grounding(program, db)) > 0
    info = grounding._compile_kernel.cache_info()
    assert containers() == before
    assert info.misses == len(shapes) > info.maxsize >= info.currsize
