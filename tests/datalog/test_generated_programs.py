"""Differential checks over generated programs.

The hand-picked workloads (TC, Dyck-1, same-generation, magic) never
put a constant in a head, read an IDB fact that is stored but never
derived, or mix arities across IDB predicates.  The generator below
does all three: three IDB predicates of arity 1–2, rule bodies of one
to three atoms over them and the EDB predicates ``E``/``A`` (some
repeating one predicate, so nonlinear), constants in heads and bodies,
and stored facts for the IDB predicates (*seeds*).
Its first rule reads only EDB atoms and binds its head, so most
generated programs derive something.

Each generated pair is checked against the oracle:

* the naive and columnar groundings hold the same ground rules -- on
  generated pairs and on the hand-written shapes the generator never
  draws (:data:`EDGE_CASES`);
* maintainers taking an EDB insert and then a random run of inserts,
  retracts and reweights keep the oracle's ground rules, and its
  values, rounds and convergence over BOOLEAN, TROPICAL and COUNTING,
  with sound witnesses, after every write;
* the default ``solve()`` and the oracle agree on BOOLEAN, TROPICAL
  and VITERBI, which accumulate each head's total, and on COUNTING,
  which re-folds it (values, rounds, convergence);
* the read-off: a default ``solve()`` equals a kernel run under ``==``
  (values, rounds, convergence), and evaluates no rule exactly when an
  all-``one`` ⊕-idempotent solve can be read off its grounding -- with
  and without stored IDB facts, on the empty database, under both
  join engines, at round caps ``T − 1`` and ``T``, and with a weight
  override that is not ``one`` or only ``==`` to it;
* DL006: a definite divergence verdict over COUNTING is the default
  ``solve()``'s ``converged`` flag, any witness lies on a cycle of the
  columnar grounding, and ``solve(strict=True)`` raises exactly when
  the verdict is ``diverges``;
* the generic (Theorem 3.1) and fringe (Theorem 6.2) circuits for
  every derived IDB fact agree with the fixpoint
  (:func:`repro.circuits.crosscheck_fixpoint`);
* on the generic and bounded circuits, the outputs-only kernels,
  which stop at a valuation's own fixpoint, agree exactly with full
  evaluation, over BOOLEAN, TROPICAL and the non-absorptive COUNTING
  semiring, on both sides of the straight-line kernel limit.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import Session, solve
from repro.circuits import CompiledCircuit, crosscheck_fixpoint
from repro.constructions import bounded_circuit, fringe_circuit, generic_circuit
from repro.datalog import (
    Atom,
    Constant,
    Database,
    Fact,
    FixpointEngine,
    MaintainedFixpoint,
    Program,
    Rule,
    ProgramValidationError,
    SymbolTable,
    Variable,
    columnar_grounding,
    parse_program,
    predict_divergence,
    relevant_grounding,
)
from repro.datalog.analysis import CONVERGES, DIVERGES
from repro.semirings import BOOLEAN, COUNTING, TROPICAL, VITERBI
from repro.workloads import random_weights
from tests.datalog.test_incremental import assert_witnesses_sound
from tests.oracle import NAIVE_ENGINE, ORACLE, assert_same_result, examples, without_round_count

IDBS = ("P", "Q", "R")
EDB_ARITY = {"E": 2, "A": 1}
DOMAIN = (0, 1, 2)
#: 3 occurs in no database, so atoms mentioning it can never match.
CONSTANTS = DOMAIN + (3,)
VARIABLES = tuple(Variable(name) for name in "XYZ")


@st.composite
def programs_with_databases(draw):
    arity = {name: draw(st.integers(1, 2)) for name in IDBS}
    arity.update(EDB_ARITY)
    constant = st.sampled_from(CONSTANTS).map(Constant)
    # Variables three times as often as constants, so bodies join.
    body_term = st.sampled_from(VARIABLES * 3 + tuple(map(Constant, CONSTANTS)))
    # The first rule reads ``E(X, Y)`` and at most two more EDB atoms
    # over variables, and its body binds every head term, so most
    # programs derive something; the others read any predicate.
    variable = st.sampled_from(VARIABLES)
    extra = draw(st.lists(st.sampled_from(sorted(EDB_ARITY)), max_size=2))
    bodies = [[Atom("E", VARIABLES[:2])] + [Atom(p, [draw(variable) for _ in range(arity[p])]) for p in extra]]
    # Some bodies repeat one predicate 2-3 times: nonlinear when it is
    # an IDB predicate, so one round seeds the rule at several atoms.
    repeated = st.builds(lambda p, times: [p] * times, st.sampled_from(sorted(arity)), st.integers(2, 3))
    for _ in range(draw(st.integers(0, 3))):
        predicates = draw(st.one_of(st.lists(st.sampled_from(sorted(arity)), min_size=1, max_size=3), repeated))
        bodies.append([Atom(p, [draw(body_term) for _ in range(arity[p])]) for p in predicates])
    rules = []
    for body in bodies:
        bound = sorted({t for atom in body for t in atom.terms if isinstance(t, Variable)}, key=repr)
        if not rules:
            head_term = st.sampled_from(bound)
        else:
            head_term = st.one_of(st.sampled_from(bound), constant) if bound else constant
        head = draw(st.sampled_from(IDBS))
        rules.append(Rule(Atom(head, [draw(head_term) for _ in range(arity[head])]), body))
    program = Program(rules)

    db = Database()
    edges = st.tuples(st.sampled_from(DOMAIN), st.sampled_from(DOMAIN))
    for u, v in draw(st.lists(edges, min_size=1, max_size=8)):
        db.add("E", u, v)
    for u in draw(st.lists(st.sampled_from(DOMAIN), max_size=3)):
        db.add("A", u)
    for predicate in draw(st.lists(st.sampled_from(IDBS), max_size=2)):
        db.add(predicate, *(draw(st.sampled_from(DOMAIN)) for _ in range(arity[predicate])))
    return program, db


def assert_constructions_agree(program, db, facts, semiring, weights=None):
    for build in (generic_circuit, fringe_circuit):
        circuit = build(program, db, facts)
        mismatches = crosscheck_fixpoint(circuit, facts, program, db, semiring, weights=weights)
        assert mismatches == {}, (build.__name__, semiring.name)


def assert_early_exit_agrees(circuit, valuation, semiring):
    """Every outputs-only query equals the full value array's entry,
    through the straight-line kernel and through the segment loop."""
    for straight in (True, False):
        compiled = CompiledCircuit(circuit)  # fresh kernel cache per side
        full = compiled.evaluate_all(semiring, valuation)
        runner = compiled._runner(semiring, outputs_only=True, reuse=straight)
        assert runner(compiled.bind(valuation)) == [full[out] for out in circuit.outputs]
        for out in circuit.outputs:
            assert compiled.evaluate_batch(semiring, [valuation], output=out) == [full[out]]


@given(programs_with_databases(), st.integers(0, 1000), st.integers(1, 3))
@settings(max_examples=examples(100), deadline=None)
def test_early_exit_agrees_with_full_evaluation(pair, seed, bound):
    program, db = pair
    facts = sorted(solve(program, db, BOOLEAN).values, key=repr)
    if not facts:
        return
    rng = random.Random(seed)
    pools = ((BOOLEAN, (False, True, True)), (TROPICAL, (1.0, 2.0, 5.0, float("inf"))), (COUNTING, (0, 1, 2)))
    for circuit in (generic_circuit(program, db, facts), bounded_circuit(program, db, bound, facts)):
        assert circuit.stages is not None
        for semiring, pool in pools:
            valuation = {fact: rng.choice(pool) for fact in db.facts()}
            assert_early_exit_agrees(circuit, valuation, semiring)


def edge_case(text, facts, insert):
    database = Database()
    for predicate, *args in facts:
        database.add(predicate, *args)
    return (parse_program(text), database), Fact(insert[0], tuple(insert[1:]))


#: An ``E`` chain 22 atoms long: past the 20 nested blocks CPython
#: compiles, so its kernels continue from a list of partial bindings.
LONG_CHAIN = "P(X0, X22) :- " + ", ".join(f"E(X{i}, X{i + 1})" for i in range(22)) + "."

#: Shapes the generator never draws, each with an EDB insert:
#: repeated variables in a seed atom (``R(X, X)``) and in an atom
#: joined by a full scan (``E(Y, Y)``); arity-3 atoms looked up on
#: two and three positions; a body constant only a later rule's head
#: produces; a join over an IDB relation with no rows yet; an insert
#: whose constant was unseen when the maintainer compiled its rules;
#: two atoms over one fact (``E(a, a)``), so one binding interns a fact
#: and then finds it; a body longer than one run of nested loops; and a
#: nonlinear cycle whose capped COUNTING counts pass 2**53.
EDGE_CASES = [
    edge_case(
        "R(X, Y) :- E(X, Y). R(X, Z) :- R(X, Y), E(Y, Z). L(X) :- R(X, X). M(X, Y) :- L(X), E(Y, Y).",
        [("E", 0, 1), ("E", 1, 0), ("E", 2, 2), ("E", 2, 3)],
        ("E", 3, 3),
    ),
    edge_case(
        "T(X, Y, Z) :- E(X, Y), E(Y, Z). U(X, Z) :- T(X, Y, Z), T(Y, Z, X), F(X, Y, Z). V(X) :- F(X, Y, X), A(Y).",
        [("E", 0, 1), ("E", 1, 2), ("E", 2, 0), ("F", 0, 1, 2), ("F", 1, 2, 1), ("A", 2)],
        ("F", 1, 2, 0),
    ),
    edge_case("P(X) :- E(X, Y), Q(9). Q(9) :- A(X).", [("E", 0, 1), ("E", 1, 1)], ("A", 2)),
    edge_case(
        "P(X) :- A(X), S(X). S(X) :- E(X, X). S(Y) :- S(X), E(X, Y).",
        [("A", 0), ("A", 1), ("E", 0, 0)],
        ("E", 0, 1),
    ),
    edge_case(
        "H(X) :- E(X, hot). T(X, Y) :- H(X), E(X, Y). T(X, Z) :- T(X, Y), E(Y, Z).",
        [("E", 1, 2), ("E", 2, 3)],
        ("E", 1, "hot"),
    ),
    edge_case(
        "P(X) :- E(X, Y), E(Y, X), A(X).",
        [("E", 0, 0), ("E", 0, 1), ("E", 1, 0), ("A", 0), ("A", 1)],
        ("E", 1, 1),
    ),
    edge_case(LONG_CHAIN, [("E", i, i + 1) for i in range(23)] + [("E", 0, 2)], ("E", 23, 24)),
    edge_case(
        "P(X) :- E(X, Y). P(X) :- E(X, X). P(X) :- P(X), P(Y).",
        [("E", 0, 0), ("E", 1, 0), ("E", 2, 0), ("E", 2, 2)],
        ("E", 0, 1),
    ),
]

#: EDB inserts for generated pairs; ``3`` occurs in no database.
INSERTS = st.builds(lambda u, v: Fact("E", (u, v)), st.sampled_from(CONSTANTS), st.sampled_from(CONSTANTS))

#: Writes after the first insert: ``(kind, fact, pick, integer
#: weight)``.  A retract or reweight hits *fact* when it is present,
#: else the *pick*-th present EDB fact.
WRITES = st.lists(
    st.tuples(
        st.sampled_from(("insert", "retract", "weight")),
        st.one_of(INSERTS, st.builds(lambda u: Fact("A", (u,)), st.sampled_from(CONSTANTS))),
        st.integers(0, 100),
        st.integers(0, 3),
    ),
    max_size=5,
)



def assert_interned_once(ground):
    assert len(set(zip(ground.fact_preds, ground.fact_rows))) == ground.fact_count


def assert_same_grounding(program, db):
    """The columnar grounding equals the naive oracle's, with no
    duplicate rule or fact id; returns the oracle's rule keys."""
    keys = relevant_grounding(program, db, config=NAIVE_ENGINE).rule_keys()
    columnar = columnar_grounding(program, db)
    assert columnar.rule_keys() == keys
    assert len(columnar) == len(keys)
    assert_interned_once(columnar)
    return keys


def _with_edge_cases(test):
    """Each hand-written shape takes its insert, retracts it again, and
    reweights and retracts a first EDB fact."""
    for pair, insert in EDGE_CASES:
        writes = [("retract", insert, 0, 0), ("weight", None, 0, 2), ("retract", None, 0, 0)]
        test = example(pair=pair, seed=0, insert=insert, writes=writes)(test)
    return test


def assert_maintainer_agrees(fix, program, db):
    """*fix* holds the oracle's ground rules and, per tracked
    semiring, its values, rounds and convergence; witnesses sound."""
    keys = assert_same_grounding(program, db)
    for semiring in (state.semiring for state in fix._tracked.values()):
        reference = solve(program, db, semiring, config=ORACLE)
        assert_same_result(fix.result(semiring), reference, semiring)
        values = fix.values(semiring)
        assert set(values) == set(reference.values)
        assert all(semiring.eq(values[fact], value) for fact, value in reference.values.items())
    assert fix.rule_keys() == keys
    assert len(fix.cground) == len(keys)
    assert_interned_once(fix.cground)
    assert_witnesses_sound(fix)


@given(pair=programs_with_databases(), seed=st.integers(0, 1000), insert=INSERTS, writes=WRITES)
@_with_edge_cases
@settings(max_examples=examples(200), deadline=None)
def test_generated_programs_agree_with_the_oracle(pair, seed, insert, writes):
    """Each pair interns into a private table, so an *insert* constant
    no fact mentions is unseen when the maintainer compiles its rules
    (the interned-body-constant path).  The maintainers run on two
    copies: integer weights under TROPICAL and COUNTING (exact in
    both), and no weights under BOOLEAN, which takes no reweights."""
    program, db = pair[0], pair[1].copy()
    db.columnar_store(SymbolTable())
    assert_same_grounding(program, db)
    # ``int`` weights: a capped divergent COUNTING count can pass 2**53,
    # where a float sum depends on the order the engines fold it in.
    weights = {fact: int(weight) for fact, weight in random_weights(db, seed=seed).items()}
    viterbi_weights = {fact: 1.0 / weight for fact, weight in weights.items()}
    for semiring, semiring_weights in (
        (BOOLEAN, None),
        (TROPICAL, weights),
        (COUNTING, weights),
        (VITERBI, viterbi_weights),
    ):
        reference = solve(program, db, semiring, config=ORACLE, weights=semiring_weights)
        assert_same_result(solve(program, db, semiring, weights=semiring_weights), reference, semiring)
        facts = sorted(reference.values, key=repr)
        if facts and semiring in (BOOLEAN, TROPICAL):
            assert_constructions_agree(program, db, facts, semiring, semiring_weights)
    weighted = db.copy()
    weighted.columnar_store(db.columnar_store().symbols)
    for fact in weighted.facts():
        if fact.predicate in EDB_ARITY:
            weighted.set_weight(fact, 1)
    fixes = [
        MaintainedFixpoint(program, db, semirings=(BOOLEAN,)),
        MaintainedFixpoint(program, weighted, semirings=(TROPICAL, COUNTING)),
    ]
    for kind, fact, pick, weight in [("insert", insert, 0, 1), *writes]:
        for fix in fixes:
            database = fix.database
            weighs = database is weighted
            if kind == "insert":
                fix.insert(fact, weight=weight if weighs else None)
            else:
                present = sorted((f for f in database.facts() if f.predicate in EDB_ARITY), key=repr)
                if fact is None or fact not in database:
                    fact = present[pick % len(present)] if present else None
                if fact is not None and kind == "retract":
                    fix.retract(fact)
                elif fact is not None and weighs:
                    database.set_weight(fact, weight)
            assert_maintainer_agrees(fix, program, database)


def assert_read_off_equals_the_kernel(program, db, semiring, config=None, weights=None, max_iterations=None):
    """A default solve equals a kernel run over a grounding with no
    round count, under ``==``, on values, rounds and convergence.  It
    evaluates no rule exactly when the read-off applies: ⊕ idempotent,
    every EDB value the grounding reads *is* ``one``, no stored IDB
    fact, and the round cap at least the grounder's rounds."""
    solved = solve(program, db, semiring, config=config, weights=weights, max_iterations=max_iterations)
    ground = relevant_grounding(program, db, config=config)
    rounds = ground.iterations
    valuation = db.valuation(semiring)
    valuation.update(weights or {})
    read_off = (
        semiring.idempotent_add
        and not any(map(db.tuples, program.idb_predicates))
        and all(valuation[fact] is semiring.one for fact in ground.decode_facts(ground.edb_fact_ids()))
        and (max_iterations is None or max_iterations >= rounds)
    )
    kernel = FixpointEngine(config=config).evaluate(
        program, db, semiring, weights=weights, max_iterations=max_iterations,
        ground=without_round_count(ground),
    )
    assert (solved.values, solved.iterations, solved.converged) == (
        kernel.values, kernel.iterations, kernel.converged)
    assert solved.rule_evaluations == (0 if read_off else kernel.rule_evaluations)
    return solved, rounds


def _on_edge_cases(test):
    """Each hand-written shape as an explicit example: every shape
    derives something, which some generated programs do not."""
    for pair, _ in EDGE_CASES:
        test = example(pair=pair, seed=0)(test)
    return test


@given(pair=programs_with_databases(), seed=st.integers(0, 1000))
@_on_edge_cases
@settings(max_examples=examples(200), deadline=None)
def test_read_off_equals_the_kernel(pair, seed):
    """On the generated database, the same without its stored IDB
    facts and the empty database; under either join engine; at the
    default round cap, at the grounder's rounds ``T`` and at ``T − 1``
    (the capped state); with one EDB weight overridden by a non-``one``
    value and, over BOOLEAN, by ``1``, which ``==`` but is not
    ``True``; over BOOLEAN and TROPICAL, which read off, and COUNTING,
    which never does."""
    program, seeded = pair
    idbs = program.idb_predicates
    unseeded = Database(fact for fact in seeded.facts() if fact.predicate not in idbs)
    rng = random.Random(seed)
    for db in (seeded, unseeded, Database()):
        edb = [fact for fact in db.facts() if fact.predicate not in idbs]
        for semiring, other in ((BOOLEAN, False), (TROPICAL, 2.0), (COUNTING, 2)):
            for config in (None, NAIVE_ENGINE):
                _, rounds = assert_read_off_equals_the_kernel(program, db, semiring, config)
            if not edb:
                assert rounds == 1
            for cap in (rounds - 1, rounds):
                assert_read_off_equals_the_kernel(program, db, semiring, max_iterations=cap)
            overrides = [other, 1] if semiring is BOOLEAN else [other]
            for weight in overrides if edb else ():
                assert_read_off_equals_the_kernel(program, db, semiring, weights={rng.choice(edb): weight})


def assert_on_a_ground_cycle(ground, fact):
    """*fact* reaches itself through ``by_body`` → ``rule_head``."""
    fid = ground.decode_facts(range(ground.fact_count)).index(fact)
    by_body, seen, frontier = ground.by_body(), set(), [fid]
    while frontier:
        for position in by_body[frontier.pop()]:
            head = ground.rule_head[position]
            if head == fid:
                return
            if head not in seen:
                seen.add(head)
                frontier.append(head)
    raise AssertionError(f"{fact} lies on no ground cycle")


@given(pair=programs_with_databases())
@settings(max_examples=examples(200), deadline=None)
def test_divergence_verdicts_match_the_runtime(pair):
    program, db = pair
    prediction = predict_divergence(program, COUNTING, db)
    converged = solve(program, db, COUNTING).converged
    if prediction.verdict == DIVERGES:
        assert not converged
    elif prediction.verdict == CONVERGES:
        assert converged
    if prediction.witness is not None:
        assert_on_a_ground_cycle(columnar_grounding(program, db), prediction.witness)
    if prediction.verdict == DIVERGES:
        with pytest.raises(ProgramValidationError):
            solve(program, db, COUNTING, strict=True)
    else:
        assert solve(program, db, COUNTING, strict=True).converged == converged


def test_constructions_read_an_underived_stored_idb_fact_as_zero():
    """``Q(1)`` is stored but no rule derives it, so both fixpoints
    read it as 0 and ``P(2,2)`` is underivable.  The generic builder
    once crashed on the fact's empty node slot (``TypeError``) and the
    fringe builder on its missing vertex (``KeyError``)."""
    program = parse_program("P(Y,Y) :- E(Z,Y), Q(1).\nQ(Y) :- E(Y,1).", target="P")
    db = Database()
    db.add("E", 0, 2)
    db.add("Q", 1)
    facts = [Fact("P", (2, 2))]
    for semiring in (BOOLEAN, TROPICAL):
        assert_constructions_agree(program, db, facts, semiring)
        choice = Session(program, db).circuit(facts[0])
        assert crosscheck_fixpoint(choice.circuit, facts, program, db, semiring) == {}

