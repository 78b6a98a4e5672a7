"""The id-space columnar fixpoint engine (DESIGN.md §9).

Three layers are pinned here:

* :class:`~repro.datalog.grounding.ColumnarGroundProgram` -- the
  parallel-array grounding produced by
  :func:`~repro.datalog.grounding.columnar_grounding`: rule arrays,
  CSR ``by_head``/``by_body`` adjacency against dict indexes built
  from the decoded rules, boundary decoding, and the naive engine's
  private symbol table;
* the ``strategy="columnar"`` fixpoint -- observational equivalence
  (values, iterations, convergence, rule-evaluation counts) with the
  naive oracle, over semirings with and without closure-compiler
  kernels, including divergence behaviour;
* the **oracle-vs-fast matrix** -- every ``(engine, strategy)`` pair
  must agree with naive grounding plus the naive fixpoint on
  ``rule_keys()``, fixpoint values, iterations and convergence over
  random digraphs, Dyck-1, same-generation and magic workloads, over
  BOOLEAN, COUNTING and TROPICAL.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import (
    ColumnarGroundProgram,
    Database,
    Fact,
    FixpointEngine,
    GROUNDING_ENGINES,
    STRATEGIES,
    columnar_grounding,
    derivable_facts,
    dyck1,
    magic_grounding,
    magic_specialize,
    naive_evaluation,
    relevant_grounding,
    same_generation,
    transitive_closure,
)
from repro.semirings import BOOLEAN, COUNTING, TROPICAL
from repro.semirings.numeric import BooleanSemiring
from repro.workloads import random_digraph, random_weights
from tests.oracle import NAIVE_ENGINE, ORACLE, PAIRS, assert_same_result

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


def test_csr_adjacency_matches_dict_indexes():
    db = random_edge_db(5, 7, 16)
    cground = columnar_grounding(TC, db)
    rules = [cground.rule(position) for position in range(len(cground))]
    by_head_ptr, by_head_rules = cground.by_head_csr()
    by_body_ptr, by_body_rules = cground.by_body_csr()

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
        got = [by_head_rules[at] for at in range(by_head_ptr[fid], by_head_ptr[fid + 1])]
        assert got == sorted(got)  # ascending rule positions
        assert {decoded(p) for p in got} == {decoded(p) for p in positions}
    for fact, positions in rules_by_idb_body.items():
        fid = cground.find_fact_id(fact)
        got = [by_body_rules[at] for at in range(by_body_ptr[fid], by_body_ptr[fid + 1])]
        assert len(got) == len(set(got))  # per-rule dedup
        assert {decoded(p) for p in got} == {decoded(p) for p in positions}


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
    for strategy in STRATEGIES:
        engine = FixpointEngine(config={"strategy": strategy})
        result = engine.evaluate(program, db, semiring, weights=weights)
        assert result.values == reference.values, strategy
        assert result.iterations == reference.iterations, strategy
        assert result.converged == reference.converged, strategy
        assert result.strategy == strategy


@given(seed=st.integers(0, 5000), n=st.integers(3, 7), m=st.integers(3, 14))
@settings(max_examples=40, deadline=None)
def test_columnar_strategy_agrees_boolean_tc(seed, n, m):
    db = random_edge_db(seed, n, m)
    assert_strategies_agree(TC, db, BOOLEAN)


@given(seed=st.integers(0, 5000), n=st.integers(3, 6), m=st.integers(3, 12))
@settings(max_examples=30, deadline=None)
def test_columnar_strategy_agrees_tropical_tc(seed, n, m):
    db = random_edge_db(seed, n, m)
    assert_strategies_agree(TC, db, TROPICAL, random_weights(db, seed=seed))


@given(seed=st.integers(0, 5000), pairs=st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_columnar_strategy_agrees_dyck(seed, pairs):
    assert_strategies_agree(DYCK, dyck_db(seed, pairs), BOOLEAN)


def test_columnar_strategy_generic_kernel_matches_compiled():
    """The exec-generated kernel and the bound-method fallback must be
    indistinguishable (same loop, ⊗/⊕ inlined vs called)."""
    for seed in range(5):
        db = random_edge_db(seed, 6, 14)
        compiled = FixpointEngine().evaluate(TC, db, BOOLEAN)
        generic = FixpointEngine().evaluate(TC, db, UNCOMPILED_BOOLEAN)
        assert compiled.values == generic.values
        assert compiled.iterations == generic.iterations
        assert compiled.rule_evaluations == generic.rule_evaluations


def test_columnar_strategy_counts_rule_evaluations_like_seminaive():
    """Semi-naive accounting, re-derived from the naive oracle's
    per-round value maps: round 1 evaluates every ground rule, round
    ``t`` only the rules with an IDB body fact whose value moved in
    round ``t - 1``."""
    db = random_edge_db(11, 7, 18)
    ground = relevant_grounding(TC, db, config=NAIVE_ENGINE)
    result = FixpointEngine().evaluate(TC, db, BOOLEAN, ground=ground)
    rounds = [{}] + [
        naive_evaluation(TC, db, BOOLEAN, ground=ground, config=ORACLE, max_iterations=t).values
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


def test_ground_forms_interchange_across_strategies():
    """A grounding from either engine feeds either strategy."""
    db = random_edge_db(2, 7, 16)
    ground = relevant_grounding(TC, db, config=NAIVE_ENGINE)
    cground = columnar_grounding(TC, db)
    reference = naive_evaluation(TC, db, BOOLEAN, ground=ground, config=ORACLE)
    for ground_form in (ground, cground):
        for strategy in STRATEGIES:
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
@settings(max_examples=15, deadline=None)
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
@settings(max_examples=10, deadline=None)
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
@settings(max_examples=10, deadline=None)
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
@settings(max_examples=8, deadline=None)
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
