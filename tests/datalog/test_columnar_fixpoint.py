"""The id-space columnar fixpoint engine (DESIGN.md §9).

Four layers are pinned here:

* :class:`~repro.datalog.grounding.ColumnarGroundProgram` -- the
  parallel-column grounding produced by
  :func:`~repro.datalog.grounding.columnar_grounding`: rule columns
  and stored body rows, the per-fact ``by_head``/``by_body``
  adjacency lists against dict indexes built from the decoded rules
  (a fact repeated in one body listed once; each list built and
  extended on its own), boundary decoding, and the naive engine's
  private symbol table;
* the ``strategy="columnar"`` fixpoint -- observational equivalence
  (values, iterations, convergence, rule-evaluation counts) with the
  naive oracle, over semirings with and without closure-compiler
  kernels, including divergence behaviour, and a default ``solve()``'s
  pinned rounds, rule evaluations and values;
* the two fold forms -- over every ⊕-idempotent semiring, the
  accumulating fold a default solve runs equals the refold exactly
  (values, rounds, convergence, rule evaluations) and agrees with the
  oracle, builds no head lists, and keeps a stored value its new total
  only ``eq``s;
* the read-off -- an all-``one`` ⊕-idempotent solve returns the
  kernel's values, rounds and convergence off its grounding with no
  rule evaluated, and a stored IDB fact keeps the kernel.  Tests of
  the kernel's own accounting solve over a grounding with no round
  count (:func:`tests.oracle.without_round_count`);
* the **oracle-vs-fast matrix** -- every ``(engine, strategy)`` pair
  must agree with naive grounding plus the naive fixpoint on
  ``rule_keys()``, fixpoint values, iterations and convergence over
  random digraphs, Dyck-1, same-generation and magic workloads, over
  BOOLEAN, COUNTING and TROPICAL.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FIXPOINT_STRATEGIES, GROUNDING_ENGINES
from repro.datalog import (
    ColumnarGroundProgram,
    Database,
    Fact,
    FixpointEngine,
    columnar_grounding,
    derivable_facts,
    dyck1,
    magic_grounding,
    magic_specialize,
    relevant_grounding,
    same_generation,
    transitive_closure,
)
from repro.datalog.seminaive import _columnar_fixpoint, _run_fixpoint
from repro.semirings import (
    ARCTIC,
    BOOLEAN,
    COUNTING,
    FUZZY,
    LUKASIEWICZ,
    SORP,
    SORP_IDEMPOTENT,
    TROPICAL,
    TROPICAL_INT,
    VITERBI,
    ChainLatticeSemiring,
    DivisibilityLatticeSemiring,
    FiniteLatticeSemiring,
    KTropicalSemiring,
    Semiring,
    SubsetLatticeSemiring,
)
from repro.semirings.numeric import BooleanSemiring
from repro.workloads import complete_dag, random_digraph, random_weights
from repro.workloads.labeled import random_bracket_graph
from tests.oracle import NAIVE_ENGINE, ORACLE, PAIRS, assert_same_result, examples, without_round_count

TC = transitive_closure()
DYCK = dyck1()


class _UncompiledBoolean(BooleanSemiring):
    """Boolean semantics without closure-compiler templates: forces the
    generic bound-method loop, so both kernel paths are exercised."""

    compiled_add_expr = None
    compiled_mul_expr = None


UNCOMPILED_BOOLEAN = _UncompiledBoolean()


def random_edge_db(seed: int, n: int, m: int, seeded_idbs: int = 0) -> Database:
    rng = random.Random(seed)
    db = Database()
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            db.add("E", u, v)
    for _ in range(seeded_idbs):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            db.add("T", u, v)
    return db


def dyck_db(seed: int, pairs: int) -> Database:
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
    return Database.from_labeled_edges(edges)


def sg_db(seed: int) -> Database:
    rng = random.Random(seed)
    db = Database()
    for _ in range(12):
        db.add(rng.choice(["Up", "Flat", "Down"]), rng.randrange(6), rng.randrange(6))
    return db


# -- the columnar ground program ------------------------------------------


def test_columnar_grounding_matches_tuple_grounding():
    db = random_edge_db(3, 8, 18)
    ground = relevant_grounding(TC, db, config=NAIVE_ENGINE)
    cground = columnar_grounding(TC, db)
    assert cground.rule_keys() == ground.rule_keys()
    assert cground.idb_facts == ground.idb_facts
    assert len(cground) == len(ground)
    assert cground.size == ground.size
    assert cground.max_body_idbs() == ground.max_body_idbs()
    # Both grounding passes record the Boolean round count.
    facts, iterations = derivable_facts(TC, db, ground=cground)
    naive_facts, naive_iterations = derivable_facts(TC, db, config=NAIVE_ENGINE)
    assert facts == naive_facts
    assert iterations == naive_iterations
    assert derivable_facts(TC, db, ground=ground) == (naive_facts, naive_iterations)


@pytest.mark.parametrize("body_first", [False, True], ids=["head-first", "body-first"])
def test_adjacency_lists_match_dict_indexes(body_first):
    db = random_edge_db(5, 7, 16)
    cground = columnar_grounding(TC, db)
    rules = [cground.rule(position) for position in range(len(cground))]
    if body_first:
        by_body, by_head = cground.by_body(), cground.by_head()
    else:
        by_head, by_body = cground.by_head(), cground.by_body()
    assert len(by_head) == len(by_body) == cground.fact_count
    assert cground.unit_rows == [(fid,) for fid in range(cground.fact_count)]

    def decoded(position):
        rule = rules[position]
        return (rule.rule_index, rule.head, rule.idb_body, rule.edb_body)

    rule_indices_by_head, rules_by_idb_body = {}, {}
    for position, rule in enumerate(rules):
        rule_indices_by_head.setdefault(rule.head, []).append(position)
        for fact in set(rule.idb_body):
            rules_by_idb_body.setdefault(fact, []).append(position)

    for fact, positions in rule_indices_by_head.items():
        fid = cground.find_fact_id(fact)
        got = by_head[fid]
        assert got == sorted(got)  # ascending rule positions
        assert {decoded(p) for p in got} == {decoded(p) for p in positions}
    for fact, positions in rules_by_idb_body.items():
        fid = cground.find_fact_id(fact)
        got = by_body[fid]
        assert got == sorted(got)  # ascending rule positions
        assert len(got) == len(set(got))  # per-rule dedup
        assert {decoded(p) for p in got} == {decoded(p) for p in positions}
    # No fact lists a rule the dict indexes lack.
    assert sum(map(len, by_head)) == len(rules)
    assert sum(map(len, by_body)) == sum(len(set(rule.idb_body)) for rule in rules)


def test_body_lists_build_no_head_lists():
    cground = columnar_grounding(TC, random_edge_db(5, 7, 16))
    cground.by_body()
    assert cground._by_head is None
    cground.by_head()
    assert cground._by_body is not None


@pytest.mark.parametrize("name", ["by_head", "by_body"])
def test_grounder_round_extends_exactly_the_lists_read(name):
    """A list read after round 0 is extended over every later round's
    rules, in place; the list nobody read is never built."""
    from repro.datalog.grounding import _ColumnarProgramGrounder

    db = random_edge_db(5, 7, 16)
    grounder = _ColumnarProgramGrounder(TC, db)
    cground = grounder.cground
    fresh = grounder.round(None)
    first = len(cground)
    lists = getattr(cground, name)()
    assert grounder.saturate(fresh) > 0
    assert len(cground) > first
    other = "_by_body" if name == "by_head" else "_by_head"
    assert getattr(cground, other) is None
    assert getattr(cground, name)() is lists
    cground._invalidate()
    assert lists == getattr(cground, name)()
    assert getattr(cground, name)() is not lists


def bracket_loops() -> Database:
    """Brackets ``0 -L-> 1 -R-> 0`` and ``1 -L-> 2 -R-> 1``: Dyck-1's
    ``S(X,Y) :- S(X,A), S(A,Y)`` grounds ``S(0,0) :- S(0,0), S(0,0)``
    and ``S(1,1) :- S(1,1), S(1,1)``, rows holding one IDB fact twice."""
    return Database.from_labeled_edges([(0, "L", 1), (1, "R", 0), (1, "L", 2), (2, "R", 1)])


def test_repeated_body_fact_is_one_body_edge():
    from repro.datalog.incremental import MaintainedFixpoint

    db = bracket_loops()
    cground = columnar_grounding(DYCK, db)
    # The maintainer starts without ``R(2, 1)``: the second loop's rows
    # arrive in a regrounding round, which extends the same lists.
    partial = db.copy()
    partial.retract("R", 2, 1)
    maintained = MaintainedFixpoint(DYCK, partial)
    by_body = maintained._cground.by_body()
    maintained.insert("R", 2, 1)
    assert maintained._cground.by_body() is by_body
    for loop in (Fact("S", (0, 0)), Fact("S", (1, 1))):
        fid = cground.find_fact_id(loop)
        [position] = [p for p, row in enumerate(cground.idb_rows) if row == (fid, fid)]
        assert cground.by_body()[fid].count(position) == 1
        assert cground.rule(position).idb_body == (loop, loop)
        mfid = maintained._cground.find_fact_id(loop)
        rules = by_body[mfid]
        assert len(rules) == len(set(rules))
        assert any(maintained._cground.idb_rows[p] == (mfid, mfid) for p in rules)
    maintained.detach()


@pytest.mark.parametrize("semiring", [BOOLEAN, TROPICAL, COUNTING], ids=lambda s: s.name)
def test_repeated_body_fact_agrees_with_oracle(semiring):
    from repro.api import solve
    from repro.constructions import generic_circuit

    db = bracket_loops()
    reference = FixpointEngine(config=ORACLE).evaluate(DYCK, db, semiring)
    assert_same_result(solve(DYCK, db, semiring), reference, semiring)
    # The generic circuit is ``N`` Jacobi rounds from 0 (N = 2 IDB
    # facts here), so it matches the oracle stopped after N rounds --
    # the fixpoint where one exists, the capped value under COUNTING,
    # where the loops diverge.
    stages = len(columnar_grounding(DYCK, db).idb_fact_ids())
    assert stages == 2
    capped = FixpointEngine(config=ORACLE).evaluate(DYCK, db, semiring, max_iterations=stages)
    targets = sorted(capped.values, key=repr)
    circuit = generic_circuit(DYCK, db, facts=targets)
    assert circuit_outputs(circuit, semiring, db.valuation(semiring)) == [
        capped.values[fact] for fact in targets
    ]
    assert not reference.converged if semiring is COUNTING else reference.converged


def test_naive_grounding_interns_into_a_private_table():
    from repro.datalog import GLOBAL_SYMBOLS, full_grounding

    db = Database.from_edges([("naive-only-a", "naive-only-b"), ("naive-only-b", "naive-only-c")])
    before = len(GLOBAL_SYMBOLS)
    ground = relevant_grounding(TC, db, config=NAIVE_ENGINE)
    full = full_grounding(TC, db)
    assert len(GLOBAL_SYMBOLS) == before
    assert GLOBAL_SYMBOLS.get("naive-only-a") is None
    assert ground.symbols is not full.symbols
    assert full.iterations is None  # no Boolean pass ran
    assert ground.rule_keys() == columnar_grounding(TC, db).rule_keys()


def test_find_fact_id_misses_cleanly():
    db = Database.from_edges([(1, 2), (2, 3)])
    cground = columnar_grounding(TC, db)
    assert cground.find_fact_id(Fact("T", (1, 3))) is not None
    assert cground.find_fact_id(Fact("T", (3, 1))) is None
    assert cground.find_fact_id(Fact("T", ("never-interned", 1))) is None
    assert cground.find_fact_id(Fact("Unknown", (1, 2))) is None


def test_columnar_grounding_handles_rule_constants():
    from repro.datalog import parse_program

    program = parse_program(
        """
        P(X, 777) :- E(X, Y).
        Q(Z) :- P(Z, 777).
        """,
        target="Q",
    )
    db = Database.from_edges([(1, 2), (2, 3)])
    assert columnar_grounding(program, db).rule_keys() == relevant_grounding(
        program, db, config=NAIVE_ENGINE
    ).rule_keys()
    # Unknown body constants match nothing, as in every other engine.
    impossible = parse_program("T(X, Y) :- E(X, Y), E(Y, 99).", target="T")
    assert len(columnar_grounding(impossible, db)) == 0


def test_columnar_grounding_nullary_atoms():
    """Propositional (zero-arity) atoms must ground and evaluate like
    every other engine (regression: the row-builder once required at
    least one term)."""
    from repro.datalog import Atom, Program, Rule, Variable

    x = Variable("X")
    program = Program(
        [
            Rule(Atom("P", ()), (Atom("Q", ()),)),
            Rule(Atom("T", (x,)), (Atom("E", (x,)), Atom("P", ()))),
        ],
        target="T",
    )
    db = Database()
    db.add("Q")
    db.add("E", 1)
    db.add("E", 2)
    assert_matrix_agrees(program, db, BOOLEAN)
    assert Fact("T", (1,)) in FixpointEngine().evaluate(
        program, db, BOOLEAN
    ).values


def test_derivable_facts_rejects_ground_without_round_count():
    from repro.datalog import full_grounding

    db = Database.from_edges([(1, 2), (2, 3)])
    with pytest.raises(ValueError, match="round count"):
        derivable_facts(TC, db, ground=full_grounding(TC, db))


def test_columnar_grounding_repeated_variables():
    from repro.datalog import parse_program

    program = parse_program(
        "S(X) :- E(X, X).\nT2(X, Y) :- S(X), E(X, Y).", target="T2"
    )
    db = Database.from_edges([(1, 1), (1, 2), (2, 2), (2, 3)])
    assert columnar_grounding(program, db).rule_keys() == relevant_grounding(
        program, db, config=NAIVE_ENGINE
    ).rule_keys()


# -- strategy equivalence -------------------------------------------------


def assert_strategies_agree(program, db, semiring, weights=None):
    reference = FixpointEngine(config=ORACLE).evaluate(program, db, semiring, weights=weights)
    for strategy in FIXPOINT_STRATEGIES:
        engine = FixpointEngine(config={"strategy": strategy})
        result = engine.evaluate(program, db, semiring, weights=weights)
        assert result.values == reference.values, strategy
        assert result.iterations == reference.iterations, strategy
        assert result.converged == reference.converged, strategy
        assert result.strategy == strategy


@given(seed=st.integers(0, 5000), n=st.integers(3, 7), m=st.integers(3, 14))
@settings(max_examples=examples(40), deadline=None)
def test_columnar_strategy_agrees_boolean_tc(seed, n, m):
    db = random_edge_db(seed, n, m)
    assert_strategies_agree(TC, db, BOOLEAN)


@given(seed=st.integers(0, 5000), n=st.integers(3, 6), m=st.integers(3, 12))
@settings(max_examples=examples(30), deadline=None)
def test_columnar_strategy_agrees_tropical_tc(seed, n, m):
    db = random_edge_db(seed, n, m)
    assert_strategies_agree(TC, db, TROPICAL, random_weights(db, seed=seed))


@given(seed=st.integers(0, 5000), pairs=st.integers(1, 4))
@settings(max_examples=examples(20), deadline=None)
def test_columnar_strategy_agrees_dyck(seed, pairs):
    assert_strategies_agree(DYCK, dyck_db(seed, pairs), BOOLEAN)


def test_columnar_strategy_generic_kernel_matches_compiled():
    """The exec-generated kernel and the bound-method fallback must be
    indistinguishable (same loop, ⊗/⊕ inlined vs called).  The
    grounding records no round count, so both run the kernel rather
    than the read-off."""
    for seed in range(5):
        db = random_edge_db(seed, 6, 14)
        ground = without_round_count(columnar_grounding(TC, db))
        compiled = FixpointEngine().evaluate(TC, db, BOOLEAN, ground=ground)
        generic = FixpointEngine().evaluate(TC, db, UNCOMPILED_BOOLEAN, ground=ground)
        assert compiled.rule_evaluations > 0
        assert compiled.values == generic.values
        assert compiled.iterations == generic.iterations
        assert compiled.rule_evaluations == generic.rule_evaluations


def test_columnar_strategy_counts_rule_evaluations_like_seminaive():
    """Semi-naive accounting, re-derived from the naive oracle's
    per-round value maps: round 1 evaluates every ground rule, round
    ``t`` only the rules with an IDB body fact whose value moved in
    round ``t - 1``.  The grounding records no round count, so the
    solve runs the kernel rather than the read-off."""
    db = random_edge_db(11, 7, 18)
    ground = without_round_count(relevant_grounding(TC, db, config=NAIVE_ENGINE))
    result = FixpointEngine().evaluate(TC, db, BOOLEAN, ground=ground)
    rounds = [{}] + [
        FixpointEngine(config=ORACLE).evaluate(TC, db, BOOLEAN, ground=ground, max_iterations=t).values
        for t in range(1, result.iterations)
    ]
    expected = len(ground)
    for t in range(1, result.iterations):
        moved = {
            fact
            for fact, value in rounds[t].items()
            if not BOOLEAN.eq(value, rounds[t - 1].get(fact, BOOLEAN.zero))
        }
        expected += sum(
            1 for position in range(len(ground)) if moved.intersection(ground.rule(position).idb_body)
        )
    assert result.iterations >= 3
    assert result.rule_evaluations == expected


def test_columnar_strategy_divergence_matches():
    from repro.datalog.evaluation import DivergenceError

    db = Database.from_edges([(1, 2), (2, 1)])
    a = FixpointEngine(config=ORACLE).evaluate(TC, db, COUNTING, max_iterations=6)
    b = FixpointEngine().evaluate(TC, db, COUNTING, max_iterations=6)
    assert not a.converged and not b.converged
    assert a.iterations == b.iterations == 6
    assert a.values == b.values
    with pytest.raises(DivergenceError):
        FixpointEngine().evaluate(TC, db, COUNTING, max_iterations=6, raise_on_divergence=True)


def sg_forest(num_vertices: int, seed: int) -> Database:
    """A random forest as Up/Down parent edges plus n/2 random Flat pairs."""
    rng = random.Random(seed)
    db = Database()
    for child in range(1, num_vertices):
        parent = rng.randrange(child)
        db.add("Up", child, parent)
        db.add("Down", parent, child)
    for _ in range(num_vertices // 2):
        db.add("Flat", rng.randrange(num_vertices), rng.randrange(num_vertices))
    return db


def values_digest(values) -> str:
    """A short fingerprint of a value map, facts in repr order."""
    text = "\n".join(f"{fact!r}={values[fact]!r}" for fact in sorted(values, key=repr))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def tc_tropical():
    db = random_digraph(24, 72, seed=5)
    return db, random_weights(db, seed=5)


#: A default ``solve()``'s ``(iterations, rule_evaluations, converged,
#: IDB fact count, values digest)``, recorded before the fixpoint read
#: the grounding's stored body rows and per-fact adjacency lists: a
#: layout change must not move a round, a rule evaluation or a value.
#: The three Boolean solves are read off their groundings, so they
#: evaluate no rule; :data:`KERNEL_RULE_EVALUATIONS` pins the kernel.
PINNED_FIXPOINTS = [
    ("tc-boolean", TC, lambda: (random_digraph(24, 72, seed=5), None), BOOLEAN, False,
     (8, 0, True, 576, "8747711600e8085b")),
    ("tc-tropical", TC, tc_tropical, TROPICAL, False,
     (9, 4237, True, 576, "edae054298b15ef2")),
    ("dyck-boolean", DYCK,
     lambda: (Database.from_labeled_edges(random_bracket_graph(12, 48, seed=5)), None), BOOLEAN, False,
     (4, 0, True, 110, "9c52782a06b73ab2")),
    ("sg-boolean", same_generation(), lambda: (sg_forest(40, 5), None), BOOLEAN, False,
     (3, 0, True, 27, "366c405564b8dd2e")),
    ("tc-counting-strict", TC, lambda: (complete_dag(8), None), COUNTING, True,
     (8, 210, True, 28, "2c52c174504ee95b")),
]

#: The kernel's rule evaluations on the read-off cases of
#: :data:`PINNED_FIXPOINTS`, run over a grounding with no round count;
#: the other cases run the kernel in the solve too.
KERNEL_RULE_EVALUATIONS = {"tc-boolean": 3528, "dyck-boolean": 3409, "sg-boolean": 34}

PINNED_IDS = [case[0] for case in PINNED_FIXPOINTS]


def pinned_key(result):
    return (result.iterations, result.rule_evaluations, result.converged, len(result.values),
            values_digest(result.values))


@pytest.mark.parametrize("program, inputs, semiring, strict, pinned",
                         [case[1:] for case in PINNED_FIXPOINTS], ids=PINNED_IDS)
def test_fixpoint_reproduces_the_pinned_accounting(program, inputs, semiring, strict, pinned):
    from repro.api import solve

    db, weights = inputs()
    assert pinned_key(solve(program, db, semiring, weights=weights, strict=strict)) == pinned


@pytest.mark.parametrize("case", PINNED_FIXPOINTS, ids=PINNED_IDS)
def test_kernel_reproduces_the_pinned_accounting(case):
    """The same cases through the kernel: the pinned rounds, values and
    convergence, and the kernel's own rule evaluations."""
    name, program, inputs, semiring, _, (rounds, evaluations, *rest) = case
    db, weights = inputs()
    ground = without_round_count(columnar_grounding(program, db))
    result = FixpointEngine().evaluate(program, db, semiring, weights=weights, ground=ground)
    assert pinned_key(result) == (rounds, KERNEL_RULE_EVALUATIONS.get(name, evaluations), *rest)


def test_ground_forms_interchange_across_strategies():
    """A grounding from either engine feeds either strategy."""
    db = random_edge_db(2, 7, 16)
    ground = relevant_grounding(TC, db, config=NAIVE_ENGINE)
    cground = columnar_grounding(TC, db)
    reference = FixpointEngine(config=ORACLE).evaluate(TC, db, BOOLEAN, ground=ground)
    for ground_form in (ground, cground):
        for strategy in FIXPOINT_STRATEGIES:
            result = FixpointEngine(config={"strategy": strategy}).evaluate(
                TC, db, BOOLEAN, ground=ground_form
            )
            assert result.values == reference.values, (strategy, type(ground_form))


# -- the oracle-vs-fast matrix --------------------------------------------


def assert_matrix_agrees(program, db, semiring, weights=None):
    """Every (engine, strategy) pair -- plus the direct
    columnar_grounding path -- must agree with the naive oracle on
    rule keys, fixpoint values, iterations and convergence.  Returns
    the oracle's result."""
    reference_keys = relevant_grounding(program, db, config=NAIVE_ENGINE).rule_keys()
    assert columnar_grounding(program, db).rule_keys() == reference_keys
    for engine in GROUNDING_ENGINES:
        ground = relevant_grounding(program, db, config={"engine": engine})
        assert ground.rule_keys() == reference_keys, engine
    reference = FixpointEngine(config=ORACLE).evaluate(program, db, semiring, weights=weights)
    for config in PAIRS:
        result = FixpointEngine(config=config).evaluate(program, db, semiring, weights=weights)
        assert_same_result(result, reference, semiring)
    return reference


@given(
    seed=st.integers(0, 5000),
    n=st.integers(3, 6),
    m=st.integers(3, 12),
    seeded_idbs=st.integers(0, 2),
)
@settings(max_examples=examples(15), deadline=None)
def test_matrix_random_digraph(seed, n, m, seeded_idbs):
    db = random_edge_db(seed, n, m, seeded_idbs)
    if not len(db):
        return
    reference_keys = relevant_grounding(TC, db, config=NAIVE_ENGINE).rule_keys()
    assert columnar_grounding(TC, db).rule_keys() == reference_keys
    for engine in GROUNDING_ENGINES:
        assert relevant_grounding(TC, db, config={"engine": engine}).rule_keys() == reference_keys
    assert_matrix_agrees(TC, db, BOOLEAN)


@given(seed=st.integers(0, 5000), pairs=st.integers(1, 3))
@settings(max_examples=examples(10), deadline=None)
def test_matrix_dyck(seed, pairs):
    assert_matrix_agrees(DYCK, dyck_db(seed, pairs), BOOLEAN)


def test_matrix_same_generation():
    assert_matrix_agrees(same_generation(), sg_db(7), BOOLEAN)


def test_matrix_tropical_weights():
    db = random_edge_db(13, 6, 14)
    assert_matrix_agrees(TC, db, TROPICAL, random_weights(db, seed=13))


def test_tropical_inf_weight_agrees_with_oracle():
    # An unusable edge: inf is the tropical zero and must flow through.
    db = random_digraph(16, 48, seed=7)
    weights = random_weights(db, seed=8)
    weights[min(weights, key=repr)] = float("inf")
    assert_matrix_agrees(TC, db, TROPICAL, weights)


def test_matrix_magic_workload():
    graph = random_digraph(14, 24, seed=7)
    magic = magic_specialize(TC, 0)
    assert_matrix_agrees(magic, graph, BOOLEAN)


def diamond_chain(length: int) -> Database:
    """*length* diamonds in a row: ``2**length`` paths from 0 to ``3 * length``."""
    edges = []
    for node in range(0, 3 * length, 3):
        edges += [(node, node + 1), (node, node + 2), (node + 1, node + 3), (node + 2, node + 3)]
    return Database.from_edges(edges)


#: The hand-picked workloads: (program, database) factories.
WORKLOADS = {
    "tc": lambda: (TC, random_edge_db(13, 6, 14)),
    "dyck": lambda: (DYCK, dyck_db(5, 3)),
    "same-generation": lambda: (same_generation(), sg_db(7)),
    "magic": lambda: (magic_specialize(TC, 0), random_digraph(14, 24, seed=7)),
    "diamonds": lambda: (magic_specialize(TC, 0), diamond_chain(70)),
}


@pytest.mark.parametrize("semiring", [BOOLEAN, COUNTING, TROPICAL], ids=lambda s: s.name)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_pairs_agree_with_oracle(workload, semiring):
    """All four (engine, strategy) pairs reproduce naive grounding plus
    the naive fixpoint -- values, iterations and ``converged`` (COUNTING
    diverges on the cyclic inputs; the capped runs must still agree)."""
    program, db = WORKLOADS[workload]()
    weights = random_weights(db, seed=3) if semiring is TROPICAL else None
    reference = assert_matrix_agrees(program, db, semiring, weights)
    if workload == "diamonds" and semiring is COUNTING:
        # Past 2**63: the counts stay exact as Python ints.
        assert reference.values[Fact("T@0", (210,))] == 2**70


# -- the two fold forms ---------------------------------------------------


def _subset_weight(rng, index):
    return frozenset(x for x in (1, 2, 3) if rng.random() < 0.6)


#: Every ⊕-idempotent semiring of :mod:`repro.semirings`, with a
#: sampler ``(rng, index) -> weight`` for the ``index``-th EDB fact.
#: TROPICAL_INT's negative and ARCTIC's positive cycles diverge, so
#: their capped states are compared too.
IDEMPOTENT = [
    (BOOLEAN, lambda rng, i: rng.random() < 0.8),
    (TROPICAL, lambda rng, i: rng.uniform(1.0, 9.0)),
    (TROPICAL_INT, lambda rng, i: rng.randint(-2, 9)),
    (VITERBI, lambda rng, i: rng.choice((1.0, 0.9, 0.5, rng.uniform(0.1, 1.0)))),
    (FUZZY, lambda rng, i: rng.uniform(0.0, 1.0)),
    (LUKASIEWICZ, lambda rng, i: rng.uniform(0.5, 1.0)),
    (ARCTIC, lambda rng, i: float(rng.randint(-3, 3))),
    (SubsetLatticeSemiring((1, 2, 3)), _subset_weight),
    (DivisibilityLatticeSemiring(30), lambda rng, i: rng.choice((1, 2, 3, 5, 6, 10, 15, 30))),
    (ChainLatticeSemiring(4), lambda rng, i: rng.randint(0, 4)),
    (FiniteLatticeSemiring({"bot": {"a", "b", "top"}, "a": {"top"}, "b": {"top"}, "top": ()}),
     lambda rng, i: rng.choice(("bot", "a", "b", "top"))),
    (SORP, lambda rng, i: SORP.var(f"x{i}")),
    (SORP_IDEMPOTENT, lambda rng, i: SORP_IDEMPOTENT.var(f"x{i}")),
    (KTropicalSemiring(1), lambda rng, i: (float(rng.randint(1, 9)),)),
]


def idempotent_weights(db, semiring, sampler, seed):
    rng = random.Random(seed)
    return {fact: sampler(rng, i) for i, fact in enumerate(sorted(db.facts(), key=repr))}


def test_the_sweep_covers_every_idempotent_semiring():
    import repro.semirings as semirings

    instances = [value for value in vars(semirings).values() if isinstance(value, Semiring)]
    exported = {semiring.name for semiring in instances if semiring.idempotent_add}
    lattices = (SubsetLatticeSemiring, DivisibilityLatticeSemiring, ChainLatticeSemiring, FiniteLatticeSemiring)
    exported |= {cls.name for cls in lattices}
    exported.add(KTropicalSemiring(1).name)
    swept = {semiring.name for semiring, _ in IDEMPOTENT}
    assert all(semiring.idempotent_add for semiring, _ in IDEMPOTENT)
    assert swept == exported


def both_folds(program, db, semiring, weights=None, max_iterations=None):
    """One solve by each fold form over one grounding:
    ``(value by fact id, iterations, converged, rule_evaluations)``
    from :func:`_columnar_fixpoint` (accumulating, ⊕ idempotent; told
    the database stores IDB facts, so it never reads off) and from
    :func:`_run_fixpoint` given a ``rule_term`` list (refolding)."""
    cground = columnar_grounding(program, db)
    edb_value = db.valuation(semiring)
    edb_value.update(weights or {})
    if max_iterations is None:
        max_iterations = max(len(cground.idb_fact_ids()), 1) + 2
    accumulated = _columnar_fixpoint(cground, semiring, edb_value, max_iterations, True)
    assert cground._by_head is None  # the accumulating form reads no head lists
    value = [semiring.zero] * cground.fact_count
    for fid in cground.edb_fact_ids():
        value[fid] = edb_value[cground.decode_fact(fid)]
    rule_term = [semiring.zero] * len(cground)
    refolded = (value, *_run_fixpoint(cground, semiring, value, rule_term, None, max_iterations))
    return accumulated, refolded


def assert_folds_agree(program, db, semiring, weights=None, max_iterations=None):
    """The accumulating fold equals the refold exactly (values,
    rounds, convergence, rule evaluations), a kernel solve agrees with
    the oracle, and a default solve, which may read its answer off the
    grounding, equals the kernel solve.  Returns ``(kernel solve
    result, oracle result)``."""
    accumulated, refolded = both_folds(program, db, semiring, weights, max_iterations)
    assert accumulated == refolded, semiring.name
    engine = FixpointEngine()
    result = engine.evaluate(program, db, semiring, weights=weights, max_iterations=max_iterations,
                             ground=without_round_count(columnar_grounding(program, db)))
    reference = FixpointEngine(config=ORACLE).evaluate(
        program, db, semiring, weights=weights, max_iterations=max_iterations
    )
    assert_same_result(result, reference, semiring)
    assert result.rule_evaluations == accumulated[3]
    default = engine.evaluate(program, db, semiring, weights=weights, max_iterations=max_iterations)
    assert (default.values, default.iterations, default.converged) == (
        result.values, result.iterations, result.converged)
    return result, reference


@given(
    seed=st.integers(0, 5000),
    n=st.integers(3, 6),
    m=st.integers(3, 12),
    case=st.sampled_from(IDEMPOTENT),
)
@settings(max_examples=examples(60), deadline=None)
def test_accumulating_fold_agrees_tc(seed, n, m, case):
    semiring, sampler = case
    db = random_edge_db(seed, n, m)
    assert_folds_agree(TC, db, semiring, idempotent_weights(db, semiring, sampler, seed))


@given(seed=st.integers(0, 5000), pairs=st.integers(1, 3), case=st.sampled_from(IDEMPOTENT))
@settings(max_examples=examples(30), deadline=None)
def test_accumulating_fold_agrees_dyck(seed, pairs, case):
    semiring, sampler = case
    db = dyck_db(seed, pairs)
    assert_folds_agree(DYCK, db, semiring, idempotent_weights(db, semiring, sampler, seed))


@pytest.mark.parametrize("case", IDEMPOTENT, ids=lambda case: case[0].name)
@pytest.mark.parametrize("workload", sorted(set(WORKLOADS) - {"diamonds"}))
def test_accumulating_fold_agrees_on_the_workloads(workload, case):
    # No diamonds: 2**70 paths are 2**70 Sorp monomials.
    semiring, sampler = case
    program, db = WORKLOADS[workload]()
    assert_folds_agree(program, db, semiring, idempotent_weights(db, semiring, sampler, 3))


def test_accumulating_fold_matches_arctic_divergence():
    """A positive arctic cycle diverges: both folds hit the cap in the
    same state as the oracle."""
    db = Database.from_edges([(1, 2), (2, 1)])
    weights = {fact: 1.0 for fact in db.facts()}
    result, reference = assert_folds_agree(TC, db, ARCTIC, weights, max_iterations=6)
    assert not result.converged and result.iterations == 6
    assert result.values[Fact("T", (1, 1))] == 6.0


def test_accumulating_fold_keeps_a_stored_value_its_new_total_only_eqs():
    """``T(0,2)`` is 0.5 by its edge in round 1; in round 2 the path
    through 1 raises its total by 1e-13, which VITERBI's ``eq`` calls
    equal.  The stored value stays 0.5, as the refold keeps it, and the
    solve converges; the oracle keeps a stored value its fresh total
    only ``eq``s too, so every strategy ends at 0.5 under ``==``.  A
    kernel that writes the running total into ``value`` ends at the
    raised total instead."""
    db = Database.from_edges([(0, 1), (1, 2), (0, 2)])
    weights = {Fact("E", (0, 1)): 1.0, Fact("E", (1, 2)): 0.5 + 1e-13, Fact("E", (0, 2)): 0.5}
    result, reference = assert_folds_agree(TC, db, VITERBI, weights)
    fact = Fact("T", (0, 2))
    assert result.values[fact] == reference.values[fact] == 0.5
    for config in PAIRS:
        solved = FixpointEngine(config=config).evaluate(TC, db, VITERBI, weights=weights)
        assert solved.values == result.values, config
    assert result.converged and result.iterations == 2


def test_refold_form_builds_head_lists():
    db = random_edge_db(5, 7, 16)
    for semiring, built in ((BOOLEAN, False), (COUNTING, True)):
        cground = columnar_grounding(TC, db)
        FixpointEngine().evaluate(TC, db, semiring, ground=cground)
        assert (cground._by_head is not None) == built, semiring.name


# -- the read-off ----------------------------------------------------------


@pytest.mark.parametrize("semiring", [BOOLEAN, TROPICAL], ids=lambda s: s.name)
def test_an_all_one_solve_is_read_off_its_grounding(semiring):
    """Every head is ``one`` after the grounder's rounds, no rule is
    evaluated and no adjacency list is built; a kernel run agrees."""
    db = random_edge_db(11, 7, 18)
    cground = columnar_grounding(TC, db)
    result = FixpointEngine().evaluate(TC, db, semiring, ground=cground)
    assert result.rule_evaluations == 0
    assert cground._by_body is None and cground._by_head is None
    assert result.iterations == cground.iterations >= 3
    assert result.converged
    assert set(result.values) == cground.idb_facts
    assert all(value is semiring.one for value in result.values.values())
    kernel = FixpointEngine().evaluate(TC, db, semiring, ground=without_round_count(cground))
    assert kernel.rule_evaluations > 0
    assert (kernel.values, kernel.iterations, kernel.converged) == (
        result.values, result.iterations, result.converged)


def test_a_stored_idb_fact_keeps_the_kernel():
    """``T(0,5)`` is stored and no rule derives it.  The grounder takes
    it as present, so ``T(0,1)`` is derivable; both fixpoints read it as
    0 (DESIGN.md §9), so ``T(0,1)`` is ``False``.  A read-off would say
    ``True``: the stored fact makes the solve run the kernel."""
    from repro.api import solve

    db = Database()
    db.add("E", 5, 1)
    db.add("T", 0, 5)
    fact = Fact("T", (0, 1))
    assert fact in derivable_facts(TC, db)[0]
    for config in PAIRS:
        assert solve(TC, db, BOOLEAN, config=config).values[fact] is False, config
    assert solve(TC, db, BOOLEAN).rule_evaluations > 0


def test_magic_grounding_composes_with_columnar():
    graph = random_digraph(14, 24, seed=9)
    oracle_ground = magic_grounding(TC, 0, graph, config=ORACLE)
    cground = magic_grounding(TC, 0, graph)
    assert isinstance(cground, ColumnarGroundProgram)
    assert cground.rule_keys() == oracle_ground.rule_keys()
    for config in PAIRS:
        ground = magic_grounding(TC, 0, graph, config=config)
        assert ground.rule_keys() == oracle_ground.rule_keys(), config
    a = FixpointEngine().evaluate(magic_specialize(TC, 0), graph, BOOLEAN, ground=cground)
    b = FixpointEngine(config=ORACLE).evaluate(
        magic_specialize(TC, 0), graph, BOOLEAN, ground=oracle_ground
    )
    assert a.values == b.values


# -- circuits stream from the columnar grounding --------------------------


def circuit_outputs(circuit, semiring, assignment):
    from repro.circuits.evaluate import evaluate_all

    values = evaluate_all(
        circuit, semiring, lambda label: assignment.get(label, semiring.one)
    )
    return [values[node] for node in circuit.outputs]


@given(seed=st.integers(0, 5000), n=st.integers(3, 6), m=st.integers(3, 12))
@settings(max_examples=examples(10), deadline=None)
def test_generic_circuit_columnar_stream_agrees(seed, n, m):
    from repro.constructions import generic_circuit

    db = random_edge_db(seed, n, m)
    weights = random_weights(db, seed=seed)
    assignment = dict(db.valuation(TROPICAL))
    assignment.update(weights)
    naive_circuit = generic_circuit(TC, db, config=NAIVE_ENGINE)
    columnar_circuit = generic_circuit(TC, db)
    assert circuit_outputs(naive_circuit, TROPICAL, assignment) == circuit_outputs(
        columnar_circuit, TROPICAL, assignment
    )


@given(seed=st.integers(0, 5000), pairs=st.integers(1, 3))
@settings(max_examples=examples(8), deadline=None)
def test_fringe_circuit_columnar_stream_agrees(seed, pairs):
    from repro.constructions import fringe_circuit

    db = dyck_db(seed, pairs)
    assignment = dict(db.valuation(BOOLEAN))
    naive_circuit = fringe_circuit(DYCK, db, config=NAIVE_ENGINE)
    columnar_circuit = fringe_circuit(DYCK, db)
    assert circuit_outputs(naive_circuit, BOOLEAN, assignment) == circuit_outputs(
        columnar_circuit, BOOLEAN, assignment
    )


def test_circuits_accept_explicit_facts_and_precomputed_ground():
    from repro.constructions import fringe_circuit, generic_circuit

    db = random_edge_db(1, 7, 16)
    assignment = dict(db.valuation(BOOLEAN))
    cground = columnar_grounding(TC, db)
    ground = relevant_grounding(TC, db, config=NAIVE_ENGINE)
    requested = [Fact("T", (0, 1)), Fact("T", (99, 98)), Fact("E", (0, 1))]
    for build in (generic_circuit, fringe_circuit):
        via_naive = build(TC, db, facts=requested, ground=ground)
        via_columnar = build(TC, db, facts=requested, ground=cground)
        assert circuit_outputs(via_naive, BOOLEAN, assignment) == circuit_outputs(
            via_columnar, BOOLEAN, assignment
        ), build.__name__
