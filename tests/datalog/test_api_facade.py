"""The unified ``repro.api`` facade and its one knob spelling.

Every execution knob goes through one frozen
:class:`repro.config.ExecutionConfig`.  This suite pins the contract:

* the vocabularies are exactly one fast path (``columnar``, the
  default) and one oracle (``naive``) per layer;
* ``repro.api.solve`` and every other entry point agree with the naive
  oracle across all four (engine, strategy) pairs;
* the retired per-function kwargs (``engine=``, ``strategy=``,
  ``grounding_engine=``, ``columnar=``) are rejected loudly;
* :class:`repro.api.Session` caches grounding and circuits, and its
  fingerprints track content, not object identity.
"""

import warnings

import pytest

from repro import api
from repro.config import (
    FIXPOINT_STRATEGIES,
    GROUNDING_ENGINES,
    DEFAULT_CONFIG,
    ExecutionConfig,
    coerce_config,
)
from repro.constructions import generic_circuit, provenance_circuit
from repro.datalog import (
    Database,
    Fact,
    FixpointEngine,
    magic_grounding,
    parse_program,
    relevant_grounding,
    transitive_closure,
)
from repro.grammars import CFG, cfl_reachability
from repro.semirings import BOOLEAN, COUNTING, TROPICAL
from tests.oracle import ORACLE, assert_same_result


@pytest.fixture
def diamond():
    db = Database.from_edges([(0, 1), (1, 3), (0, 2), (2, 3), (3, 4)])
    return transitive_closure(), db


# -- ExecutionConfig -------------------------------------------------------


def test_config_validates_vocabularies():
    ExecutionConfig(engine="columnar", strategy="naive", construction="fringe")
    ExecutionConfig(engine="columnar", strategy="columnar")
    assert GROUNDING_ENGINES == FIXPOINT_STRATEGIES == ("columnar", "naive")
    with pytest.raises(ValueError, match="expected one of"):
        ExecutionConfig(engine="indexed")
    with pytest.raises(ValueError, match="expected one of"):
        ExecutionConfig(strategy="seminaive")
    with pytest.raises(TypeError):
        ExecutionConfig(prune="yes")
    with pytest.raises(ValueError):
        ExecutionConfig(engine="btree")
    with pytest.raises(ValueError):
        ExecutionConfig(strategy="gauss-seidel")
    with pytest.raises(ValueError):
        ExecutionConfig(construction="magic")


def test_config_is_frozen_and_evolvable():
    config = ExecutionConfig(engine="naive")
    with pytest.raises(Exception):
        config.engine = "columnar"
    evolved = config.evolve(strategy="columnar")
    assert evolved.engine == "naive"
    assert evolved.strategy == "columnar"
    assert config.strategy is None  # the original is untouched


def test_config_resolution_and_coercion():
    assert DEFAULT_CONFIG.resolved_engine == "columnar"
    assert DEFAULT_CONFIG.resolved_strategy == "columnar"
    assert DEFAULT_CONFIG.resolved_construction == "auto"
    from_mapping = coerce_config({"engine": "naive", "strategy": "naive"})
    assert from_mapping == ExecutionConfig(engine="naive", strategy="naive")
    assert coerce_config(None) == DEFAULT_CONFIG
    assert coerce_config(from_mapping) is from_mapping


# -- solve() equivalence matrix --------------------------------------------


#: The historical engine × strategy knob matrix; "indexed" and
#: "seminaive" were retired in favour of the columnar fast path.
RETIRED = {"indexed", "seminaive"}


@pytest.mark.parametrize("engine", ("indexed", "naive", "columnar"))
@pytest.mark.parametrize("strategy", ("naive", "seminaive", "columnar"))
def test_solve_matches_legacy_spellings_across_matrix(diamond, engine, strategy):
    """Across the historical matrix, a retired name fails loudly with
    the vocabulary error, and every spelling of a live (engine,
    strategy) pair -- the facade, a session and the engine object --
    agrees with the naive oracle."""
    program, db = diamond
    if {engine, strategy} & RETIRED:
        with pytest.raises(ValueError, match="expected one of"):
            api.solve(program, db, BOOLEAN, config={"engine": engine, "strategy": strategy})
        return
    assert engine in GROUNDING_ENGINES and strategy in FIXPOINT_STRATEGIES
    config = ExecutionConfig(engine=engine, strategy=strategy)
    for semiring in (BOOLEAN, COUNTING, TROPICAL):
        reference = api.solve(program, db, semiring, config=ORACLE)
        for result in (
            api.solve(program, db, semiring, config=config),
            api.Session(program, db, config).solve(semiring),
            FixpointEngine(config=config).evaluate(program, db, semiring),
        ):
            assert_same_result(result, reference, semiring)
            assert result.strategy == strategy


def test_session_solve_agrees_with_module_solve(diamond):
    program, db = diamond
    session = api.Session(program, db, ExecutionConfig(strategy="columnar"))
    assert session.solve(COUNTING).values == api.solve(
        program, db, COUNTING, config=ExecutionConfig(strategy="columnar")
    ).values
    assert session.value(Fact("T", (0, 4)), COUNTING) == 2  # 0-1-3-4 and 0-2-3-4


# -- the retired kwarg spellings ---------------------------------------------


def test_every_legacy_kwarg_is_gone(diamond):
    program, db = diamond
    grammar = CFG(["S"], ["a"], [("S", ("a",)), ("S", ("S", "S"))], "S")
    retired = [
        lambda: api.solve(program, db, BOOLEAN, strategy="naive"),
        lambda: api.solve(program, db, BOOLEAN, grounding_engine="naive"),
        lambda: relevant_grounding(program, db, engine="naive"),
        lambda: magic_grounding(program, 0, db, columnar=True),
        lambda: generic_circuit(program, db, Fact("T", (0, 4)), engine="naive"),
        lambda: cfl_reachability(grammar, [(0, "a", 1)], BOOLEAN, strategy="naive"),
        lambda: FixpointEngine("naive", grounding_engine="naive"),
    ]
    for call in retired:
        with pytest.raises(TypeError):
            call()


def test_config_spelling_is_warning_free(diamond):
    program, db = diamond
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        api.solve(program, db, BOOLEAN, config=ExecutionConfig(engine="columnar"))
        api.solve(program, db, BOOLEAN, config=ExecutionConfig(strategy="naive"))
        relevant_grounding(program, db, config=ExecutionConfig(engine="naive"))
        provenance_circuit(program, db, Fact("T", (0, 4)), config=DEFAULT_CONFIG)


def test_conflicting_legacy_and_config_knobs_raise(diamond):
    # A retired kwarg is rejected even next to a config that agrees
    # with it: there is exactly one spelling.
    program, db = diamond
    with pytest.raises(TypeError):
        api.solve(program, db, BOOLEAN, strategy="naive", config=ExecutionConfig(strategy="naive"))
    with pytest.raises(TypeError):
        relevant_grounding(program, db, engine="naive", config=ExecutionConfig(engine="naive"))


def test_fixpoint_engine_accepts_config_and_rejects_contradictions():
    engine = FixpointEngine(config=ExecutionConfig(strategy="naive", engine="naive"))
    assert engine.strategy == "naive"
    assert engine.config.resolved_engine == "naive"
    assert FixpointEngine().strategy == "columnar"
    assert FixpointEngine(config={"engine": "naive"}).config == ExecutionConfig(engine="naive")
    with pytest.raises(TypeError):
        FixpointEngine("naive")  # config is the only field
    with pytest.raises(ValueError):
        FixpointEngine(config={"strategy": "seminaive"})


# -- Session caching and fingerprints --------------------------------------


def test_session_caches_grounding_and_circuits(diamond):
    program, db = diamond
    session = api.Session(program, db)
    assert session.ground() is session.ground()
    fact = Fact("T", (0, 4))
    assert session.circuit(fact) is session.circuit(fact)
    assert session.compiled(fact) is session.compiled(fact)


@pytest.mark.parametrize("write", ["insert", "retract"])
def test_session_answers_for_its_database_after_a_direct_write(write):
    """With no stream attached, an insert or retract written straight
    to the database drops the session's grounding and circuit choices
    and moves its fingerprint: it once kept them, so a solve after the
    insert still gave 3 facts and one after the retract raised
    ``KeyError``."""
    program = transitive_closure()
    db = Database.from_edges([(0, 1), (1, 2)])
    session = api.Session(program, db)
    fact = Fact("T", (1, 2))
    assert len(session.solve().values) == 3
    fingerprint, choice = session.fingerprint, session.circuit(fact)
    if write == "insert":
        db.add("E", 2, 3)
    else:
        db.retract("E", 0, 1)
    for semiring in (BOOLEAN, TROPICAL):
        got, fresh = session.solve(semiring), api.solve(program, db, semiring)
        assert (got.values, got.iterations, got.converged) == (
            fresh.values, fresh.iterations, fresh.converged), semiring.name
    assert session.ground() is session.ground()
    assert session.fingerprint == api.Session(program, db).fingerprint != fingerprint
    assert session.circuit(fact) is not choice


def test_session_fingerprint_follows_a_reweight():
    """A reweight moves no structural-write count, yet the database
    fingerprint hashes weights: the session once returned a cached
    fingerprint after ``set_weight``, equal to the old one and unlike
    a fresh session's."""
    program = transitive_closure()
    db = Database.from_edges([(0, 1), (1, 2)])
    session = api.Session(program, db)
    before = session.fingerprint
    db.set_weight(Fact("E", (0, 1)), 7.0)
    assert session.fingerprint == api.Session(program, db).fingerprint != before


def test_session_analyze_judges_the_pruned_grounding_under_prune():
    """The only cycle lives in dead rules: under ``prune`` the solve
    never grounds them and converges, so DL006 must not fire.  The
    analyzer once judged the unpruned program's grounding."""
    program = parse_program(
        "T(X, Y) :- E(X, Y). T(X, Z) :- T(X, Y), E(Y, Z). U(X, Y) :- F(X, Y). U(X, Z) :- U(X, Y), F(Y, Z).",
        target="T",
    )
    db = Database([Fact("E", (0, 1)), Fact("E", (1, 2)), Fact("F", (0, 1)), Fact("F", (1, 0))])
    pruned = api.Session(program, db, ExecutionConfig(prune=True))
    assert pruned.solve(COUNTING).converged
    assert pruned.analyze(COUNTING).errors() == ()
    assert [d.code for d in api.Session(program, db).analyze(COUNTING).errors()] == ["DL006"]


def test_session_construction_pinning(diamond):
    program, db = diamond
    fact = Fact("T", (0, 4))
    auto = api.Session(program, db).circuit(fact)
    generic = api.Session(program, db, ExecutionConfig(construction="generic")).circuit(fact)
    fringe = api.Session(program, db, ExecutionConfig(construction="fringe")).circuit(fact)
    assert generic.construction == "generic"
    assert fringe.construction == "fringe"
    # All three agree on the Boolean answer, whatever auto picked.
    truth = {Fact("E", edge) for edge in [(0, 1), (1, 3), (3, 4)]}
    answers = {
        choice.compiled().evaluate_boolean_batch([truth])[0]
        for choice in (auto, generic, fringe)
    }
    assert answers == {True}


def test_fingerprints_track_content_not_identity(diamond):
    program, db = diamond
    twin = Database.from_edges([(3, 4), (2, 3), (0, 2), (1, 3), (0, 1)])  # same edges, shuffled
    assert api.database_fingerprint(db) == api.database_fingerprint(twin)
    assert api.program_fingerprint(program) == api.program_fingerprint(transitive_closure())
    twin.set_weight(Fact("E", (0, 1)), 7.0)
    assert api.database_fingerprint(db) != api.database_fingerprint(twin)
    bigger = Database.from_edges([(0, 1), (1, 3), (0, 2), (2, 3), (3, 4), (4, 5)])
    assert api.database_fingerprint(db) != api.database_fingerprint(bigger)


def test_session_fingerprint_includes_construction(diamond):
    program, db = diamond
    auto = api.Session(program, db).fingerprint
    pinned = api.Session(program, db, ExecutionConfig(construction="fringe")).fingerprint
    assert auto[:2] == pinned[:2]
    assert auto[2] == "auto" and pinned[2] == "fringe"


def test_served_stream_rebuilds_seed_without_straight_line_codegen(monkeypatch):
    """Structural inserts rebuild the served circuit; each rebuild seeds
    its evaluator with the segment loop and agrees with maintenance."""
    from repro.circuits import runtime

    calls = []
    real = runtime._gen_straight_source

    def counting_gen(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(runtime, "_gen_straight_source", counting_gen)
    db = Database.from_edges([(0, 1), (1, 2), (2, 5)])
    for fact in db.facts():
        db.set_weight(fact, 4.0)
    stream = api.Session(transitive_closure(), db).stream(TROPICAL)
    output = Fact("T", (0, 5))
    served = stream.serve(output, TROPICAL)
    assert served.value() == stream.value(output, TROPICAL) == 12.0
    for step, (u, v, w) in enumerate([(0, 3, 1.0), (3, 5, 1.0), (1, 4, 0.5), (4, 5, 0.5)], 1):
        stream.insert(Fact("E", (u, v)), weight=w)
        assert served.rebuilds == step
        assert served.value() == stream.value(output, TROPICAL)
    assert served.value() == 2.0
    assert served.evaluator.compiled.size <= runtime._STRAIGHT_LINE_LIMIT
    assert calls == []
