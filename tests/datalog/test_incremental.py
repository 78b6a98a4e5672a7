"""Stream-vs-recompute tests for differential maintenance (DESIGN.md §11).

The contract under test: a :class:`MaintainedFixpoint` fed any
interleaving of single-fact inserts, retracts and reweights is
*indistinguishable* from throwing everything away and recomputing --
not just the values, but the live ground-rule set, the Jacobi
iteration count and the per-round rule-evaluation counter, because the
columnar kernel's trajectory depends only on the ground-rule set that
incremental regrounding and the liveness repair keep exactly equal to
a fresh grounding's.

Four layers:

* a Hypothesis :class:`RuleBasedStateMachine` drives random
  insert/retract/reweight/query streams and checks the full
  equivalence invariant after **every** step: TC over a DAG edge
  universe for BOOLEAN/COUNTING on an unweighted database and
  TROPICAL/COUNTING on an integer-weighted one (weight ``0`` included,
  which ties witness candidates; integer weights keep both semirings'
  arithmetic exact, so ``==`` is the right comparison), and cyclic
  Dyck-1 -- whose EDB facts can go unread -- for TROPICAL/FUZZY on
  quarter weights, from a database holding a stored IDB fact.  A
  sampled query rule sweeps all four (engine, strategy) pairs, the
  naive oracle included, and a second invariant checks that every
  witness is a live rule whose cached term equals its head's value
  and that the witness graph is acyclic.  The recompute runs the
  kernel (a fresh grounding with its round count cleared, as the
  maintainer's is), and a default solve, which may read an all-one
  Boolean answer off the grounding, must match its values, rounds and
  convergence;
* metamorphic insert-then-retract tests: applying a batch of inserts
  and then retracting it (in reverse or shuffled order) must restore
  the *exact* prior state -- values, iterations, rule evaluations,
  ground-rule keys, per-fact support counts, symbol-table length and
  pattern-index row accounting all come back, on both the tuple and
  columnar fixpoint pipelines;
* pinned traces over a fixed stream: after each event, the digest of
  every maintained state (recorded before seeds, repairs and
  refreshes moved onto the batch kernel), and an order-free digest of
  values by fact, flags, recompute accounting and rule keys;
* targeted edge cases: cold start from an empty database, a
  reweight of a fact no live rule reads, retracts that repair only
  the witness region, improving reweights that repair nothing,
  tombstones compacted only when the grounding is read, cyclic
  programs whose capped (diverged) state must self-heal through the
  full-kernel refresh path, a maintained grounding that keeps no
  stale round count, a build that copies the store and grounds once,
  the IDB-write guard (a rejected write leaves the database
  unchanged), and a served circuit that follows direct database
  writes, maintained or degraded.
"""

import hashlib
import random
from graphlib import TopologicalSorter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

import pytest

from repro.api import Session, database_fingerprint, solve
from repro.datalog import (
    ColumnarStore,
    Database,
    DatalogError,
    Fact,
    FixpointEngine,
    MaintainedFixpoint,
    SymbolTable,
    columnar_grounding,
    default_symbols,
    dyck1,
    parse_program,
    scoped_symbols,
    transitive_closure,
)
from repro.semirings import BOOLEAN, COUNTING, FUZZY, TROPICAL
from repro.workloads import random_bracket_graph, random_digraph, random_weights
from tests.datalog.test_columnar_store import assert_runs_partition_and_ascend
from tests.oracle import ORACLE, PAIRS, examples, without_round_count

TC = transitive_closure()
DYCK = dyck1()
COLUMNAR_ENGINE = FixpointEngine()

#: DAG edge universe: u < v over six vertices, so every stream state
#: converges and integer tropical/counting arithmetic stays exact.
VERTICES = 6
EDGE_UNIVERSE = [
    (u, v) for u in range(VERTICES) for v in range(u + 1, VERTICES)
]


#: Dyck-1 bracket universe over three vertices, cycles included.
BRACKETS = [(label, u, v) for label in "LR" for u in range(3) for v in range(3)]
#: Quarter weights: exact in both tropical sums and fuzzy min/max.
QUARTERS = [0.0, 0.25, 0.5, 1.0]
#: A stored IDB fact: a fresh grounding takes it as given.
DYCK_SEED = Fact("S", (2, 0))


def weighted_replay(live):
    return Database.from_edges(live, weights=dict(live))


def plain_replay(live):
    return Database.from_edges(live)


def dyck_replay(live):
    database = Database([DYCK_SEED])
    for (label, u, v), weight in live.items():
        database.add_fact(Fact(label, (u, v)), weight)
    return database


def assert_witnesses_sound(fix):
    """Every witness is a live rule deriving its fact whose cached
    term ``eq``s the fact's value, and no witness chain is cyclic."""
    cground = fix._cground
    for state in fix._states():
        witness = state.witness
        if witness is None:
            continue
        eq = state.semiring.eq
        reads = {}
        for fid, position in enumerate(witness):
            if position < 0:
                continue
            assert position in cground.by_head()[fid], (state.semiring.name, fid)
            assert eq(state.rule_term[position], state.value[fid]), (state.semiring.name, fid)
            reads[fid] = [b for b in cground.idb_rows[position] if witness[b] >= 0]
        tuple(TopologicalSorter(reads).static_order())  # CycleError on a cycle


def result_key(result):
    return (result.values, result.iterations, result.converged, result.rule_evaluations)


def kernel_recompute(program, database, semiring):
    """A recompute from scratch that runs the kernel: a default solve
    over a fresh grounding with its round count cleared, as the
    maintainer's own grounding has it.  A default solve, which may
    read its answer off the grounding instead, must give the same
    values, rounds and convergence."""
    ground = columnar_grounding(program, database)
    default = COLUMNAR_ENGINE.evaluate(program, database, semiring, ground=ground)
    kernel = COLUMNAR_ENGINE.evaluate(program, database, semiring, ground=without_round_count(ground))
    assert result_key(default)[:3] == result_key(kernel)[:3]
    return kernel


def nonzero(semiring, values):
    return {f: v for f, v in values.items() if not semiring.is_zero(v)}


class StreamMachine(RuleBasedStateMachine):
    """Random fact streams, crosschecked against recompute each step."""

    def __init__(self):
        super().__init__()
        # Cold start: both maintained fixpoints begin on *empty*
        # databases and must absorb the very first insert.
        self.weighted = Database()
        self.plain = Database()
        self.wfix = MaintainedFixpoint(TC, self.weighted, semirings=(TROPICAL, COUNTING))
        self.pfix = MaintainedFixpoint(TC, self.plain, semirings=(BOOLEAN, COUNTING))
        self.live = {}  # (u, v) → integer weight (as float)
        # Dyck-1 starts from a database holding only a stored IDB fact.
        self.brackets = dyck_replay({})
        self.dfix = MaintainedFixpoint(DYCK, self.brackets, semirings=(TROPICAL, FUZZY))
        self.dlive = {}  # (label, u, v) → quarter weight

    @rule(
        edge=st.sampled_from(EDGE_UNIVERSE),
        weight=st.integers(min_value=0, max_value=9),
    )
    def insert(self, edge, weight):
        u, v = edge
        fresh = edge not in self.live
        assert self.wfix.insert("E", u, v, weight=float(weight)) is fresh
        assert self.pfix.insert("E", u, v) is fresh
        self.live[edge] = float(weight)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def retract(self, data):
        edge = data.draw(st.sampled_from(sorted(self.live)))
        u, v = edge
        assert self.wfix.retract("E", u, v) == Fact("E", (u, v))
        assert self.pfix.retract(Fact("E", (u, v))) == Fact("E", (u, v))
        del self.live[edge]

    @precondition(lambda self: self.live)
    @rule(data=st.data(), weight=st.integers(min_value=0, max_value=9))
    def reweight(self, data, weight):
        edge = data.draw(st.sampled_from(sorted(self.live)))
        # Routed through the *database*, not the maintainer wrapper:
        # any writer holding the Database handle must be maintained.
        self.weighted.set_weight(Fact("E", edge), float(weight))
        self.live[edge] = float(weight)

    def dyck_write(self, kind, bracket, weight=None):
        label, u, v = bracket
        if kind == "insert":
            assert self.dfix.insert(label, u, v, weight=weight) is (bracket not in self.dlive)
            self.dlive[bracket] = weight
        elif kind == "retract":
            self.dfix.retract(label, u, v)
            del self.dlive[bracket]
        else:
            self.brackets.set_weight(Fact(label, (u, v)), weight)
            self.dlive[bracket] = weight

    @rule(bracket=st.sampled_from(BRACKETS), weight=st.sampled_from(QUARTERS))
    def dyck_insert(self, bracket, weight):
        self.dyck_write("insert", bracket, weight)

    @precondition(lambda self: self.dlive)
    @rule(data=st.data())
    def dyck_retract(self, data):
        self.dyck_write("retract", data.draw(st.sampled_from(sorted(self.dlive))))

    @precondition(lambda self: self.dlive)
    @rule(data=st.data(), weight=st.sampled_from(QUARTERS))
    def dyck_reweight(self, data, weight):
        self.dyck_write("weight", data.draw(st.sampled_from(sorted(self.dlive))), weight)

    @precondition(lambda self: len(self.dlive) >= 2)
    @rule(data=st.data(), weight=st.sampled_from(QUARTERS))
    def dyck_reweight_while_absent(self, data, weight):
        """Reweight one bracket while another is briefly gone: the
        absence can leave the reweighted fact read by no live rule,
        and the re-arrival makes it read again."""
        gone, other = data.draw(st.permutations(sorted(self.dlive)))[:2]
        restored = self.dlive[gone]
        self.dyck_write("retract", gone)
        self.dyck_write("weight", other, weight)
        self.dyck_write("insert", gone, restored)

    @rule()
    def query_matrix(self):
        """Every (engine, strategy) pipeline agrees with the maintained
        state (the derivable set and every tracked semiring)."""
        wdb, pdb = weighted_replay(self.live), plain_replay(self.live)
        expect_bool = nonzero(BOOLEAN, self.pfix.values(BOOLEAN))
        expect_trop = nonzero(TROPICAL, self.wfix.values(TROPICAL))
        expect_count = nonzero(COUNTING, self.wfix.values(COUNTING))
        for config in PAIRS:
            pipeline = FixpointEngine(config=config)
            got = pipeline.evaluate(TC, pdb, BOOLEAN)
            assert nonzero(BOOLEAN, got.values) == expect_bool
            got = pipeline.evaluate(TC, wdb, TROPICAL)
            assert nonzero(TROPICAL, got.values) == expect_trop
            got = pipeline.evaluate(TC, wdb, COUNTING)
            assert nonzero(COUNTING, got.values) == expect_count
        ddb = dyck_replay(self.dlive)
        for semiring in (TROPICAL, FUZZY):
            expect = nonzero(semiring, self.dfix.values(semiring))
            for config in PAIRS:
                got = FixpointEngine(config=config).evaluate(DYCK, ddb, semiring)
                assert nonzero(semiring, got.values) == expect

    @invariant()
    def matches_recompute(self):
        wdb = weighted_replay(self.live)
        for semiring in (TROPICAL, COUNTING):
            fresh = kernel_recompute(TC, wdb, semiring)
            assert self.wfix.values(semiring) == fresh.values
            assert result_key(self.wfix.result(semiring)) == result_key(fresh)
        pdb = plain_replay(self.live)
        for semiring in (BOOLEAN, COUNTING):
            fresh = kernel_recompute(TC, pdb, semiring)
            assert self.pfix.values(semiring) == fresh.values
            assert result_key(self.pfix.result(semiring)) == result_key(fresh)
        assert self.wfix.rule_keys() == columnar_grounding(TC, wdb).rule_keys()
        assert self.pfix.rule_keys() == columnar_grounding(TC, pdb).rule_keys()
        ddb = dyck_replay(self.dlive)
        for semiring in (TROPICAL, FUZZY):
            fresh = kernel_recompute(DYCK, ddb, semiring)
            assert self.dfix.values(semiring) == fresh.values
            assert result_key(self.dfix.result(semiring)) == result_key(fresh)
        assert self.dfix.rule_keys() == columnar_grounding(DYCK, ddb).rule_keys()
        for fix in (self.wfix, self.pfix, self.dfix):
            assert len(fix.cground) == len(fix.rule_keys())  # no duplicate ground rule

    @invariant()
    def witnesses_are_sound(self):
        for fix in (self.wfix, self.pfix, self.dfix):
            assert_witnesses_sound(fix)


StreamMachine.TestCase.settings = settings(
    max_examples=examples(30), stateful_step_count=16, deadline=None
)

TestStreamMachine = StreamMachine.TestCase


# -- metamorphic: insert-then-retract leaves no residue --------------------


def dag_database(seed=3, extra=6):
    rng = random.Random(seed)
    edges = [(i, i + 1) for i in range(VERTICES - 1)]
    pool = [e for e in EDGE_UNIVERSE if e not in set(edges)]
    edges += rng.sample(pool, extra)
    return Database.from_edges(
        edges, weights={e: float(rng.randint(1, 9)) for e in edges}
    )


def state_snapshot(fix, semirings):
    """Everything insert-then-retract must restore, bit for bit."""
    facts = sorted(fix.values(semirings[0]), key=repr)
    return {
        "results": {s.name: result_key(fix.result(s)) for s in semirings},
        "values": {s.name: fix.values(s) for s in semirings},
        "rule_keys": fix.rule_keys(),
        "support": {fact: fix.support_count(fact) for fact in facts},
        "symbols": len(default_symbols()),
        "edb": sorted(fix.database.facts(), key=repr),
    }


def assert_indexes_consistent(fix):
    """Pattern-index accounting: the runs partition the relation's
    rows exactly (no retracted row lingering in a run), and every run
    ascends."""
    for predicate in fix.database.predicates():
        relation = fix.store.relation(predicate)
        if relation is None:
            continue
        for positions in [(0,), (1,)]:
            assert_runs_partition_and_ascend(relation, positions)


@pytest.mark.parametrize("order", ["reverse", "shuffled"])
def test_insert_then_retract_restores_state(order):
    database = dag_database()
    fix = MaintainedFixpoint(TC, database, semirings=(TROPICAL, COUNTING))
    before = state_snapshot(fix, (TROPICAL, COUNTING))

    rng = random.Random(11)
    batch = [e for e in EDGE_UNIVERSE if Fact("E", e) not in database][:5]
    for u, v in batch:
        fix.insert("E", u, v, weight=float(rng.randint(1, 9)))
    mutated = state_snapshot(fix, (TROPICAL, COUNTING))
    assert mutated["rule_keys"] != before["rule_keys"]

    undo = list(reversed(batch)) if order == "reverse" else rng.sample(batch, len(batch))
    for u, v in undo:
        fix.retract("E", u, v)

    after = state_snapshot(fix, (TROPICAL, COUNTING))
    assert after == before
    assert_indexes_consistent(fix)

    # The fast path and the oracle see the restored database identically.
    for config in (None, ORACLE):
        result = FixpointEngine(config=config).evaluate(TC, database, TROPICAL)
        assert result.values == before["values"]["tropical"]


def test_reinsert_after_retract_is_not_a_duplicate():
    """Retract prunes every ground rule touching the fact, so the same
    insert rediscovers exactly the pruned rules -- support counts and
    rule keys must round-trip through retract → insert too."""
    database = dag_database(seed=5)
    fix = MaintainedFixpoint(TC, database, semirings=(COUNTING,))
    before = state_snapshot(fix, (COUNTING,))
    victim = next(iter(database.facts("E")))
    weight = database.weight(victim)

    fix.retract(victim)
    fix.insert(victim, weight=weight)

    assert state_snapshot(fix, (COUNTING,)) == before
    assert_indexes_consistent(fix)


def test_weight_cycle_restores_state():
    database = dag_database(seed=9)
    fix = MaintainedFixpoint(TC, database, semirings=(TROPICAL,))
    victim = next(iter(database.facts("E")))
    weight = database.weight(victim)
    before = state_snapshot(fix, (TROPICAL,))
    database.set_weight(victim, weight + 5.0)
    assert state_snapshot(fix, (TROPICAL,)) != before
    database.set_weight(victim, weight)
    assert state_snapshot(fix, (TROPICAL,)) == before


# -- pinned maintained state -----------------------------------------------


def tc_events():
    """Inserts, retracts and reweights (better and worse) on TC over
    ``random_digraph(24, 72, seed=5)``; the backbone edge ``(0, 1)``
    leaves and comes back."""
    database = random_digraph(24, 72, seed=5)
    weights = random_weights(database, seed=5)
    rng = random.Random(5)
    present = sorted(fact.args for fact in database.facts("E"))
    absent = [(u, v) for u in range(24) for v in range(24) if u != v and (u, v) not in set(present)]
    events = []
    for kind in ("insert", "better", "retract", "worse", "insert", "retract"):
        if kind == "insert":
            edge = absent.pop(rng.randrange(len(absent)))
            present.append(edge)
            events.append(("insert", edge, float(rng.randint(1, 9))))
        elif kind == "retract":
            events.append(("retract", present.pop(rng.randrange(len(present))), None))
        else:
            edge = rng.choice(present)
            events.append(("weight", edge, 0.0 if kind == "better" else 9.0))
    if (0, 1) in present:
        events += [("retract", (0, 1), None), ("insert", (0, 1), 2.0), ("weight", (0, 1), 0.0)]
    return database, weights, events


def dyck_events():
    """Dyck-1 over a bracket graph with a stored ``S`` seed: inserts,
    retracts, reweights, and a reweight of ``R(31, 31)`` while no live
    rule reads it."""
    database = Database([Fact("S", (2, 0))])
    rng = random.Random(5)
    for u, label, v in random_bracket_graph(8, 24, seed=5):
        database.add_fact(Fact(label, (u, v)), rng.choice(QUARTERS))
    brackets = sorted((fact for fact in database.facts() if fact.predicate != "S"), key=repr)
    events = [
        ("insert", Fact("L", (30, 31)), 1.0),
        ("insert", Fact("R", (31, 31)), 0.5),
        ("insert", Fact("R", (31, 2)), 0.25),
        ("weight", brackets[3], 0.25),
        ("retract", brackets[5], None),
        ("retract", Fact("L", (30, 31)), None),
        ("weight", Fact("R", (31, 31)), 0.25),
        ("insert", Fact("L", (30, 31)), 0.5),
        ("weight", brackets[7], 1.0),
        ("retract", brackets[1], None),
    ]
    return database, events


def maintained_digest(fix):
    """Every state's values, witnesses and converged flag, then each
    tracked semiring's recompute accounting, as one short digest."""
    parts = [
        (state.semiring.name, state.value, None if state.witness is None else list(state.witness), state.converged)
        for state in fix._states()
    ]
    for state in fix._tracked.values():
        result = fix.result(state.semiring)
        parts.append((result.iterations, result.rule_evaluations))
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:12]


def order_free_digest(fix):
    """Per tracked semiring its values keyed by decoded fact, its
    converged flag and its recompute accounting, then the sorted live
    rule keys, as one short digest: nothing that depends on the order
    in which the grounder emitted rules or interned facts."""
    parts = []
    for state in fix._tracked.values():
        semiring = state.semiring
        result = fix.result(semiring)
        values = sorted(fix.values(semiring).items(), key=lambda item: repr(item[0]))
        parts.append((semiring.name, values, state.converged, result.iterations, result.rule_evaluations))
    parts.append(sorted(map(repr, fix.rule_keys())))
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:12]


def pinned_state_trace(digest=maintained_digest):
    """Per event, the *digest* of the maintainers it touches: TC with
    TROPICAL on the weighted graph, BOOLEAN on the unweighted one and
    COUNTING on the weighted edges ``u < v`` (a DAG, so the counts
    converge), then Dyck-1 with FUZZY."""
    database, weights, events = tc_events()
    weighted, plain, dag = Database(), database.copy(), Database()
    for fact in database.facts():
        weighted.add_fact(fact, weights[fact])
        if fact.args[0] < fact.args[1]:
            dag.add_fact(fact, weights[fact])
    fixes = [
        (MaintainedFixpoint(TC, weighted, semirings=(TROPICAL,)), True),
        (MaintainedFixpoint(TC, plain, semirings=(BOOLEAN,)), False),
        (MaintainedFixpoint(TC, dag, semirings=(COUNTING,)), True),
    ]
    trace = [tuple(digest(fix) for fix, _ in fixes)]
    for kind, edge, weight in events:
        fact = Fact("E", edge)
        for fix, weighs in fixes:
            if fix.database is dag and edge[0] > edge[1]:
                continue
            if kind == "insert":
                fix.insert(fact, weight=weight if weighs else None)
            elif kind == "retract":
                fix.retract(fact)
            elif weighs:
                fix.database.set_weight(fact, weight)
        trace.append(tuple(digest(fix) for fix, _ in fixes))
    brackets, events = dyck_events()
    dfix = MaintainedFixpoint(DYCK, brackets, semirings=(FUZZY,))
    trace.append((digest(dfix),))
    for kind, fact, weight in events:
        if kind == "insert":
            dfix.insert(fact, weight=weight)
        elif kind == "retract":
            dfix.retract(fact)
        else:
            brackets.set_weight(fact, weight)
        trace.append((digest(dfix),))
    return trace


#: :func:`pinned_state_trace`, recorded while the maintainer still ran
#: its own propagation loop beside the batch kernel: moving seed,
#: repair and refresh onto the kernel must not move a value, a witness,
#: a converged flag, a recompute round or a rule evaluation.  Rows 13-15
#: and 18-20 were re-recorded when the maintainer began keeping its
#: build pass's grounder: derived rows enter its store in round order,
#: not fact-id order, so later Dyck-1 inserts intern facts and emit
#: rules in another order (:data:`PINNED_ORDER_FREE_TRACE` did not move).
PINNED_STATE_TRACE = [
    ("507b36b1a273", "9f25b1e8fb0c", "3fe30af19248"),
    ("6f652c222214", "456bc0654a3f", "3fe30af19248"),
    ("8cd4703f02b4", "456bc0654a3f", "3fe30af19248"),
    ("963c62e226a7", "b9a6bf65b7b8", "3fe30af19248"),
    ("d8c65af55518", "9cf47aaa43e1", "6c8ac2ff98fd"),
    ("14575552226e", "56fea893caa7", "6c8ac2ff98fd"),
    ("c3aa047bf201", "1facd167c6fa", "f868e34f917e"),
    ("f77a1d1aefa7", "3b7dda23a23f", "6c6133badbf7"),
    ("b88c67f8a757", "01642aec40eb", "6580c6c6a066"),
    ("fe5b1ef90c4b", "01642aec40eb", "3c5045a8688a"),
    ("d74b6cf6caee",),
    ("d74b6cf6caee",),
    ("9189328eba0f",),
    ("e51ff0485000",),
    ("7308f294ddc0",),
    ("b9aae4f5582e",),
    ("8751f338bdc6",),
    ("1a4bb1106792",),
    ("d4bb9875a76f",),
    ("000eccd212e4",),
    ("e4553d198a59",),
]


def test_maintained_state_reproduces_the_pinned_trace():
    # Fact ids follow symbol ids: intern into a fresh table.
    with scoped_symbols():
        assert pinned_state_trace() == PINNED_STATE_TRACE


#: :func:`pinned_state_trace` under :func:`order_free_digest`, recorded
#: while the maintainer still re-inserted its derived facts into a
#: second store copy in fact-id order: the order in which store rows
#: arrive may move rule positions and witnesses, never a value, a
#: converged flag, a recompute round, a rule evaluation or a rule.
PINNED_ORDER_FREE_TRACE = [
    ("a47d811316a7", "edd4e8cb3715", "25aabf12b42a"),
    ("fd5f45b1ca2b", "1ac62e829288", "25aabf12b42a"),
    ("d4def265c8b8", "1ac62e829288", "25aabf12b42a"),
    ("82e5a22365e0", "b13e3aaa6857", "25aabf12b42a"),
    ("833ee4dc0a3e", "b13e3aaa6857", "a95f709993ab"),
    ("6ebaaabc4963", "b35b531452de", "a95f709993ab"),
    ("45119a3df318", "32bc4f3338b7", "51870b4e8acc"),
    ("51037bce4cf7", "7d5743c3902b", "29676f6fec31"),
    ("8970ef783970", "32bc4f3338b7", "efeb66dfe4c8"),
    ("7db64ffc7ca7", "32bc4f3338b7", "b1b2e183bec7"),
    ("5f29122b6e3a",),
    ("5f29122b6e3a",),
    ("a425909646d6",),
    ("af680c330250",),
    ("f0d6d991a715",),
    ("31666b8b78d2",),
    ("fcefaa85496f",),
    ("fcefaa85496f",),
    ("03eb2f0b0aef",),
    ("2e679f1c88a5",),
    ("57c15a6f3ff8",),
]


def test_maintained_state_reproduces_the_order_free_pinned_trace():
    with scoped_symbols():
        assert pinned_state_trace(order_free_digest) == PINNED_ORDER_FREE_TRACE


# -- targeted edge cases ---------------------------------------------------


def test_body_constant_unseen_at_build_matches_a_later_insert():
    """The maintainer compiles rule bodies with their constants
    interned: ``hot`` occurs nowhere at build time, yet the insert of
    ``E(1, hot)`` must fire ``H(X) :- E(X, hot)`` and everything
    downstream of it, and the retract must undo that."""
    program = parse_program("H(X) :- E(X, hot). T(X, Y) :- H(X), E(X, Y). T(X, Z) :- T(X, Y), E(Y, Z).")
    database = Database.from_edges([(1, 2), (2, 3)])
    database.columnar_store(SymbolTable())  # "hot" is unseen in this scope
    fix = MaintainedFixpoint(program, database, semirings=(TROPICAL,))
    hot = Fact("E", (1, "hot"))
    fix.insert(hot)
    assert fix.values(TROPICAL) == solve(program, database, TROPICAL).values
    assert fix.values(TROPICAL)[Fact("T", (1, 3))] == TROPICAL.one
    fix.retract(hot)
    assert fix.values(TROPICAL) == solve(program, database, TROPICAL).values == {}


def test_cold_start_from_empty_database():
    database = Database()
    fix = MaintainedFixpoint(TC, database, semirings=(BOOLEAN,))
    assert fix.values(BOOLEAN) == {}
    assert fix.insert("E", 0, 1)
    assert fix.insert("E", 1, 2)
    assert fix.values(BOOLEAN) == {
        Fact("T", (0, 1)): True,
        Fact("T", (1, 2)): True,
        Fact("T", (0, 2)): True,
    }
    fix.retract("E", 0, 1)
    assert fix.values(BOOLEAN) == {Fact("T", (1, 2)): True}


def test_retract_keeps_stored_idb_facts_alive():
    """A fresh grounding takes an IDB fact stored in the database as
    given, so it must stay alive -- and its consumers with it -- even
    after the only rule deriving it dies."""
    database = Database([Fact("E", (1, 2)), Fact("E", (2, 3)), Fact("T", (1, 2))])
    fix = MaintainedFixpoint(TC, database, semirings=(TROPICAL,))
    database.retract("E", 1, 2)
    fresh = COLUMNAR_ENGINE.evaluate(TC, database, TROPICAL)
    assert Fact("T", (1, 3)) in fresh.values
    assert fix.values(TROPICAL) == fresh.values
    assert fix.rule_keys() == columnar_grounding(TC, database).rule_keys()


@pytest.mark.parametrize("late", [False, True], ids=["tracked", "tracked-late"])
@pytest.mark.parametrize("semiring", [TROPICAL, COUNTING], ids=lambda s: s.name)
def test_reweight_of_an_unread_fact_reaches_a_later_reader(semiring, late):
    """Retracting ``L(3,4)`` leaves ``R(4,4)`` read by no live rule; its
    reweight must still land in the maintained slot -- also for a
    semiring first tracked while it is unread -- because the re-insert
    of ``L(3,4)`` creates a rule reading it again."""
    database = Database()
    database.add_fact(Fact("L", (3, 4)), 1.0)
    database.add_fact(Fact("R", (4, 4)), 5.0)
    fix = MaintainedFixpoint(DYCK, database, semirings=() if late else (semiring,))
    fix.retract("L", 3, 4)
    database.set_weight(Fact("R", (4, 4)), 2.0)
    fix.track(semiring)
    fix.insert("L", 3, 4, weight=1.0)
    fresh = COLUMNAR_ENGINE.evaluate(DYCK, database, semiring)
    assert fresh.values == {Fact("S", (3, 4)): semiring.mul(1.0, 2.0)}
    assert fix.values(semiring) == fresh.values


def ring(n, chords=()):
    """A strongly connected ring with distinct weights: every T fact
    is downstream of every edge."""
    edges = [(i, (i + 1) % n) for i in range(n)] + list(chords)
    return Database.from_edges(edges, weights={e: float(1 + i) for i, e in enumerate(edges)})


def recorded_regions(fix, monkeypatch):
    """The region of every repair *fix* runs, per semiring name."""
    regions = []
    real = MaintainedFixpoint._repair

    def spy(self, tracked, region, dirty):
        regions.append((tracked.semiring.name, len(region)))
        return real(self, tracked, region, dirty)

    monkeypatch.setattr(MaintainedFixpoint, "_repair", spy)
    return regions


def test_retract_repairs_only_the_witness_region(monkeypatch):
    database = ring(8, chords=[(0, 4), (2, 6)])
    fix = MaintainedFixpoint(TC, database, semirings=(TROPICAL,))
    cone = len(fix.values(TROPICAL))  # strongly connected: every T fact
    assert cone == 64
    regions = recorded_regions(fix, monkeypatch)
    fix.retract("E", 0, 1)
    assert fix.values(TROPICAL) == COLUMNAR_ENGINE.evaluate(TC, database, TROPICAL).values
    (live, live_size), (name, size) = regions
    assert (live, name) == ("boolean", "tropical")
    assert 0 < size < cone and live_size < cone
    assert_witnesses_sound(fix)


def test_improving_reweight_ascends_without_a_reset(monkeypatch):
    """A tropical decrease is an improvement: it ascends like an insert
    and repairs no region; an increase repairs the witness region."""
    database = dag_database(seed=2)
    fix = MaintainedFixpoint(TC, database, semirings=(TROPICAL, COUNTING))
    regions = recorded_regions(fix, monkeypatch)
    edge = Fact("E", (2, 3))
    assert database.weight(edge) >= 1.0
    for weight in (0.5, 0.5, 9.0):
        database.set_weight(edge, weight)
        assert fix.values(TROPICAL) == COLUMNAR_ENGINE.evaluate(TC, database, TROPICAL).values
        assert fix.values(COUNTING) == COLUMNAR_ENGINE.evaluate(TC, database, COUNTING).values
    # COUNTING keeps no witnesses: every reweight repairs its cone.
    assert [name for name, _ in regions] == ["counting", "counting", "tropical", "counting"]
    assert_witnesses_sound(fix)


def test_dead_rules_stay_tombstones_until_the_grounding_is_read():
    database = dag_database(seed=4)
    fix = MaintainedFixpoint(TC, database, semirings=(TROPICAL,))
    rules = len(fix._cground)
    fix.retract(next(iter(database.facts("E"))))
    assert fix._dead and len(fix._cground) == rules
    fresh = columnar_grounding(TC, database)
    assert len(fix.cground) == len(fresh)  # reading compacts
    assert not fix._dead
    assert fix.rule_keys() == fresh.rule_keys()
    assert_witnesses_sound(fix)
    for u, v in [(0, 5), (1, 3)]:
        fix.insert("E", u, v, weight=2.0)
    assert fix.values(TROPICAL) == COLUMNAR_ENGINE.evaluate(TC, database, TROPICAL).values
    assert_witnesses_sound(fix)


def test_stream_writes_leave_the_grounding_to_the_maintainer():
    """A stream write does not copy (and so compact) the grounding;
    ``Session.ground()`` reads the live maintainer instead."""
    session = Session(TC, dag_database(seed=6))
    stream = session.stream(TROPICAL)
    stream.retract(next(iter(session.database.facts("E"))))
    assert stream.fixpoint._dead
    ground = session.ground()
    assert ground is stream.fixpoint._cground and not stream.fixpoint._dead
    assert ground.rule_keys() == columnar_grounding(TC, session.database).rule_keys()
    assert session.solve(TROPICAL).values == stream.values(TROPICAL)


def test_the_maintained_grounding_records_no_stale_round_count():
    """Inserts that extend the chain ``E(0,1)…E(2,3)`` to ``E(7,8)``
    raise the Boolean rounds from 4 to 9, and a retract drops them to
    7; the maintainer keeps none, so ``derivable_facts`` rejects its
    grounding, and a solve over it, public or not, runs the kernel and
    counts the true rounds."""
    from repro.datalog import derivable_facts

    session = Session(TC, Database.from_edges([(0, 1), (1, 2), (2, 3)]))
    assert session.solve().iterations == 4
    stream = session.stream()
    fix = stream.fixpoint
    for node in range(3, 8):
        stream.insert("E", node, node + 1)
    for retract, rounds in ((None, 9), ((6, 7), 7)):
        if retract:
            stream.retract("E", *retract)
        database = session.database
        assert columnar_grounding(TC, database).iterations == rounds
        assert fix.cground.iterations is None
        with pytest.raises(ValueError, match="round count"):
            derivable_facts(TC, database, ground=fix.cground)
        for result in (session.solve(), fix.result(BOOLEAN)):
            assert result.iterations == rounds and result.rule_evaluations > 0
        assert session.solve().values == solve(TC, database).values


def test_a_maintainer_grounds_once(monkeypatch):
    """One store copy and one grounding pass: the maintainer keeps the
    grounder it ran, whose working store holds the EDB rows plus one
    row per derived head and whose ``derived`` set is that head set."""
    database = random_digraph(24, 72, seed=5)
    copies = []
    copy = ColumnarStore.copy
    monkeypatch.setattr(ColumnarStore, "copy", lambda store: copies.append(store) or copy(store))
    fix = MaintainedFixpoint(TC, database)
    assert len(copies) == 1
    heads = set(fix.cground.idb_fact_ids())
    assert fix._derived == heads
    rows = list(fix.store.facts())
    assert len(rows) == len(database) + len(heads)
    assert set(rows) == set(database.facts()) | set(fix.cground.decode_facts(sorted(heads)))


def test_divergent_counting_self_heals():
    """On a cycle COUNTING never converges; the maintained state must
    track the batch kernel's *capped* trajectory exactly, which the
    incremental paths cannot do -- they must fall back to a full
    refresh whenever the tracked state is not converged."""
    database = Database.from_edges([(0, 1), (1, 2), (2, 0)])
    fix = MaintainedFixpoint(TC, database, semirings=(COUNTING,))
    assert not fix.is_converged(COUNTING)

    rng = random.Random(2)
    live = {(0, 1), (1, 2), (2, 0)}
    pool = [(u, v) for u in range(4) for v in range(4) if u != v]
    for step in range(30):
        if live and rng.random() < 0.4:
            edge = rng.choice(sorted(live))
            fix.retract("E", *edge)
            live.discard(edge)
        else:
            edge = rng.choice(pool)
            if edge in live:
                continue
            fix.insert("E", *edge)
            live.add(edge)
        fresh = COLUMNAR_ENGINE.evaluate(TC, Database.from_edges(sorted(live)), COUNTING)
        assert fix.values(COUNTING) == fresh.values, step
        assert fix.is_converged(COUNTING) is fresh.converged, step


def test_idb_writes_are_rejected():
    database = Database.from_edges([(0, 1)])
    fix = MaintainedFixpoint(TC, database)
    with pytest.raises(DatalogError):
        fix.insert("T", 0, 1)
    with pytest.raises(DatalogError):
        fix.retract("T", 0, 1)
    with pytest.raises(KeyError):
        fix.retract("E", 5, 6)


def test_a_rejected_idb_write_leaves_the_database_unchanged():
    """A direct IDB insert, reweight or retract is rejected before the
    database mutates, so a later EDB insert leaves the maintained
    state equal to a fresh solve of the database."""
    stored = Fact("T", (3, 4))
    database = Database([Fact("E", (0, 1)), Fact("E", (1, 2)), stored])
    fix = MaintainedFixpoint(TC, database, semirings=(BOOLEAN,))
    before = database_fingerprint(database)
    with pytest.raises(DatalogError):
        database.add_fact(Fact("T", (2, 5)))
    with pytest.raises(DatalogError):
        database.set_weight(stored, 0.0)
    with pytest.raises(DatalogError):
        database.retract_fact(stored)
    assert database_fingerprint(database) == before
    assert Fact("T", (2, 5)) not in database and stored in database
    database.add("E", 5, 6)
    database.add("E", 4, 5)
    fresh = COLUMNAR_ENGINE.evaluate(TC, database.copy(), BOOLEAN)
    assert fix.values(BOOLEAN) == fresh.values
    assert fix.result(BOOLEAN).values == fresh.values


@pytest.mark.parametrize("degraded", [False, True])
def test_a_served_circuit_follows_direct_database_writes(monkeypatch, degraded):
    """Direct ``db.add_fact``/``set_weight``/``retract_fact`` calls
    reach a stream's served circuit, whether the stream is maintained
    or degraded to recompute."""
    weights = {(0, 1): 1.0, (1, 2): 2.0, (2, 3): 2.0}
    database = Database.from_edges(weights, weights=weights)
    stream = Session(TC, database).stream(TROPICAL)
    output = Fact("T", (0, 3))
    served = stream.serve(output, TROPICAL)
    if degraded:
        monkeypatch.setattr(MaintainedFixpoint, "_reground", lambda self, mark: 1 / 0)
        stream.insert("E", 3, 4)
        monkeypatch.undo()
    assert stream.degraded is degraded
    assert served.value() == stream.value(output, TROPICAL) == 5.0
    database.set_weight(Fact("E", (1, 2)), 9.0)
    assert served.value() == stream.value(output, TROPICAL) == 12.0
    database.retract_fact(Fact("E", (0, 1)))
    assert served.value() == stream.value(output, TROPICAL) == TROPICAL.zero
    database.add_fact(Fact("E", (0, 2)), 1.0)
    assert served.value() == stream.value(output, TROPICAL) == 3.0
    assert stream.degraded is degraded


def test_detach_freezes_the_maintained_state():
    database = Database.from_edges([(0, 1), (1, 2)])
    fix = MaintainedFixpoint(TC, database, semirings=(BOOLEAN,))
    frozen = fix.values(BOOLEAN)
    fix.detach()
    database.add("E", 2, 3)
    assert fix.values(BOOLEAN) == frozen
