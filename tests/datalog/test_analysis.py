"""The static program analyzer (DESIGN.md §14).

Pins the full contract of :mod:`repro.datalog.analysis`: the stable
DL001-DL009 diagnostic codes, the Tarjan SCC / stratification report,
dead-rule pruning (exact value preservation for the target cone,
measurable ground-rule reduction), engine-entry validation, and --
property-tested against both fixpoint strategies -- the
soundness of divergence prediction: a definite verdict is a claim
about the runtime ``converged`` flag, ``unknown`` is compatible with
either.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExecutionConfig, Session, solve
from repro.config import FIXPOINT_STRATEGIES
from repro.datalog import (
    Database,
    Fact,
    FixpointEngine,
    ProgramValidationError,
    analyze_program,
    count_join_probes,
    dead_rules,
    dependency_report,
    parse_program,
    predict_divergence,
    prune_unreachable,
    reachable_predicates,
    relevant_grounding,
    require_valid,
    tarjan_sccs,
    transitive_closure,
    validation_diagnostics,
)
from repro.datalog.analysis import CONVERGES, DIVERGES, UNKNOWN
from repro.semirings import BOOLEAN, COUNTING, COUNTING_CAP, TROPICAL
from tests.oracle import examples

TC = transitive_closure()

#: Transitive closure plus a dead pair of rules: ``S`` is never
#: reachable from target ``T``, so pruning must drop exactly its two
#: rules while every ``T`` value stays identical.
DEAD_S = """
T(X, Y) :- E(X, Y).
T(X, Y) :- T(X, Z), E(Z, Y).
S(X, Y) :- E(Y, X).
S(X, Y) :- S(X, Z), E(Y, Z).
"""

#: A basic chain program whose recursive SCC (``S``) has no base case:
#: the CFG from ``T`` is finite ({E}), so under the chain-boundedness
#: guards the analyzer proves convergence without grounding.
UNPRODUCTIVE_CHAIN = """
T(X, Y) :- E(X, Y).
T(X, Y) :- A(X, Z), S(Z, Y).
S(X, Y) :- B(X, Z), S(Z, Y).
"""


#: Transitive closure plus a dead ``U`` that diverges over COUNTING on
#: a cyclic ``F``: only the unpruned grounding has a cycle.
DEAD_CYCLIC_U = """
T(X, Y) :- E(X, Y).
T(X, Y) :- T(X, Z), E(Z, Y).
U(X, Y) :- F(X, Y).
U(X, Y) :- U(X, Z), F(Z, Y).
"""


def edge_db(*edges):
    db = Database()
    for u, v in edges:
        db.add("E", u, v)
    return db


CYCLE_DB = edge_db(("a", "b"), ("b", "a"))
DAG_DB = edge_db(("a", "b"), ("b", "c"))


# -- diagnostics: DL001 safety, DL002 arity, DL003/DL004/DL009 database ----


def test_dl001_unsafe_rule_reported_per_rule():
    program = parse_program(
        "T(X, Y) :- E(X, X).\nU(A, B) :- E(A, A).\nT(X, Y) :- E(X, Y).",
        validate=False,
    )
    diagnostics = validation_diagnostics(program)
    unsafe = [d for d in diagnostics if d.code == "DL001"]
    assert len(unsafe) == 2
    assert all(d.severity == "error" for d in unsafe)
    assert "Y" in unsafe[0].message and "B" in unsafe[1].message
    assert unsafe[0].rule is program.rules[0]


def test_dl002_arity_clash_names_both_rules():
    program = parse_program(
        "T(X, Y) :- E(X, Y).\nU(X) :- T(X).",
        validate=False,
    )
    diagnostics = validation_diagnostics(program)
    clashes = [d for d in diagnostics if d.code == "DL002"]
    assert len(clashes) == 1
    clash = clashes[0]
    assert clash.severity == "error"
    assert clash.predicate == "T"
    assert "arity 2" in clash.message and "arity 1" in clash.message
    # The diagnostic points at the clashing rule and relates the first use.
    assert clash.rule is program.rules[1]
    assert clash.related == (program.rules[0],)


def test_database_diagnostics_dl003_dl004_dl009():
    program = parse_program("T(X, Y) :- E(X, Y).\nT(X, Y) :- T(X, Z), F(Z, Y).")
    db = Database()
    db.add("E", "a", "b")
    db.add("E", "a", "b", "c")  # arity 3 row against the program's arity-2 use
    db.add("T", "x", "y")  # stored facts for an IDB predicate
    diagnostics = validation_diagnostics(program, db)
    codes = {d.code for d in diagnostics}
    assert codes == {"DL003", "DL004", "DL009"}
    dl003 = next(d for d in diagnostics if d.code == "DL003")
    assert dl003.predicate == "E" and dl003.severity == "warning"
    dl004 = next(d for d in diagnostics if d.code == "DL004")
    assert dl004.predicate == "T" and dl004.severity == "warning"
    dl009 = next(d for d in diagnostics if d.code == "DL009")
    assert dl009.predicate == "F" and dl009.severity == "info"


def test_mixed_arity_database_stays_warning_not_error():
    # Mixed-arity database relations are defined behavior (the store
    # keys rows by (predicate, arity)); the analyzer may warn, never
    # reject.
    program = parse_program("T(X, Y) :- E(X, Y).")
    db = Database()
    db.add("E", "a", "b")
    db.add("E", "a", "b", "c")
    require_valid(program, db)  # must not raise
    report = analyze_program(program, db)
    assert report.ok
    assert report.by_code("DL003")


def test_diagnostic_format_and_json_roundtrip():
    program = parse_program("T(X, Y) :- E(X, X).", validate=False)
    diagnostic = validation_diagnostics(program)[0]
    formatted = diagnostic.format("prog.dl")
    assert formatted.startswith("prog.dl:1:")
    assert "DL001 error:" in formatted
    payload = diagnostic.to_json()
    assert payload["code"] == "DL001"
    assert payload["severity"] == "error"
    assert payload["line"] == 1


def test_program_validation_error_summarizes_codes():
    program = parse_program(
        "T(X, Y) :- E(X, X).\nU(X) :- T(X).",
        validate=False,
    )
    with pytest.raises(ProgramValidationError) as excinfo:
        require_valid(program)
    assert "DL001" in str(excinfo.value) and "DL002" in str(excinfo.value)
    assert len(excinfo.value.diagnostics) == 2


# -- Tarjan SCCs, classification, stratification ---------------------------


def test_tarjan_on_hand_built_graphs():
    # Two 2-cycles bridged by an edge, plus an isolated node.
    graph = {
        "a": {"b"},
        "b": {"a", "c"},
        "c": {"d"},
        "d": {"c"},
        "e": set(),
    }
    sccs = tarjan_sccs(graph)
    assert ("c", "d") in sccs and ("a", "b") in sccs and ("e",) in sccs
    # Reverse topological: the {c,d} component precedes {a,b} (which
    # depends on it).
    assert sccs.index(("c", "d")) < sccs.index(("a", "b"))


def test_tarjan_is_deterministic_and_iterative_on_a_long_path():
    # A 2000-node path would blow the recursion limit in a recursive
    # Tarjan; the iterative one returns 2000 singleton SCCs bottom-up.
    n = 2000
    graph = {f"n{i:05d}": {f"n{i + 1:05d}"} for i in range(n - 1)}
    graph[f"n{n - 1:05d}"] = set()
    sccs = tarjan_sccs(graph)
    assert len(sccs) == n
    assert sccs[0] == (f"n{n - 1:05d}",)
    assert sccs == tarjan_sccs(graph)


def test_dependency_report_linear_tc():
    report = dependency_report(TC)
    assert report.recursion == "linear"
    assert report.is_recursive()
    assert report.scc_of("T") == ("T",)
    assert report.reachable == {"T", "E"}
    assert report.to_json()["recursion"] == "linear"


def test_dependency_report_classifications():
    nonlinear = parse_program("T(X, Y) :- E(X, Y).\nT(X, Y) :- T(X, Z), T(Z, Y).")
    assert dependency_report(nonlinear).recursion == "nonlinear"
    acyclic = parse_program("T(X, Y) :- E(X, Y).\nU(X, Y) :- T(X, Y), F(Y, X).", target="U")
    report = dependency_report(acyclic)
    assert report.recursion == "acyclic"
    assert not report.is_recursive()


def test_strata_order_dependencies_first():
    program = parse_program(
        """
        A(X, Y) :- E(X, Y).
        A(X, Y) :- A(X, Z), E(Z, Y).
        B(X, Y) :- A(X, Y).
        B(X, Y) :- B(X, Z), A(Z, Y).
        """,
        target="B",
    )
    report = dependency_report(program)
    assert report.scc_of("A") != report.scc_of("B")
    level = {p: lvl for lvl, group in enumerate(report.strata) for p in group}
    assert level["A"] < level["B"]
    # SCC list is bottom-up: A's component comes first.
    assert report.sccs.index(("A",)) < report.sccs.index(("B",))


# -- dead rules and pruning ------------------------------------------------


def test_dead_rules_and_reachability_on_dead_s():
    program = parse_program(DEAD_S, target="T")
    assert reachable_predicates(program) == {"T", "E"}
    dead = dead_rules(program)
    assert len(dead) == 2
    assert {rule.head.predicate for rule in dead} == {"S"}
    report = analyze_program(program)
    assert {d.predicate for d in report.by_code("DL008")} == {"S"}
    assert len(report.by_code("DL007")) == 2
    assert report.pruned_rule_count == 2


def test_prune_unreachable_keeps_exactly_the_reachable_headed_subset():
    program = parse_program(DEAD_S, target="T")
    pruned = prune_unreachable(program)
    assert pruned is not program
    assert pruned.target == "T"
    assert pruned.rules == tuple(
        rule for rule in program.rules if rule.head.predicate == "T"
    )


def test_prune_unreachable_is_identity_when_nothing_is_dead():
    assert prune_unreachable(TC) is TC


def test_pruning_shrinks_the_grounding():
    program = parse_program(DEAD_S, target="T")
    db = edge_db(("a", "b"), ("b", "c"), ("c", "d"))
    full = relevant_grounding(program, db)
    pruned = relevant_grounding(prune_unreachable(program), db)
    assert len(pruned) < len(full)
    # The pruned grounding is exactly the reachable-headed subset.
    kept = {key for key in full.rule_keys() if key[1].predicate == "T"}
    remapped = {key[1:] for key in pruned.rule_keys()}
    assert {key[1:] for key in kept} == remapped


@pytest.mark.parametrize("strategy", FIXPOINT_STRATEGIES)
@pytest.mark.parametrize("semiring", [BOOLEAN, COUNTING, TROPICAL], ids=lambda s: s.name)
def test_pruned_solve_preserves_target_cone_values_exactly(strategy, semiring):
    program = parse_program(DEAD_S, target="T")
    db = edge_db(("a", "b"), ("b", "c"), ("c", "d"), ("a", "c"))
    weights = None
    if semiring is TROPICAL:
        rng = random.Random(7)
        weights = {fact: float(rng.randint(1, 9)) for fact in db.facts()}
    full = solve(program, db, semiring, config=ExecutionConfig(strategy=strategy), weights=weights)
    lean = solve(
        program,
        db,
        semiring,
        config=ExecutionConfig(strategy=strategy, prune=True),
        weights=weights,
    )
    full_t = {fact: value for fact, value in full.values.items() if fact.predicate == "T"}
    lean_t = {fact: value for fact, value in lean.values.items() if fact.predicate == "T"}
    assert full_t == lean_t
    # Only the unreachable predicate disappears from the result set.
    assert all(fact.predicate == "T" for fact in lean.values)
    assert any(fact.predicate == "S" for fact in full.values)


def test_session_prune_config_and_plan_program():
    program = parse_program(DEAD_S, target="T")
    db = edge_db(("a", "b"), ("b", "c"))
    plain = Session(program, db)
    lean = Session(program, db, config=ExecutionConfig(prune=True))
    assert plain.plan_program is program
    assert lean.plan_program.rules == prune_unreachable(program).rules
    probe = Fact("T", ("a", "c"))
    assert plain.solve(COUNTING).value(probe) == lean.solve(COUNTING).value(probe)


# -- divergence prediction: unit verdicts ----------------------------------


def test_absorptive_semiring_always_converges():
    prediction = predict_divergence(TC, BOOLEAN)
    assert prediction.verdict == CONVERGES
    assert prediction.definite
    assert "absorptive" in prediction.reason


def test_acyclic_program_converges_over_any_semiring():
    program = parse_program("T(X, Y) :- E(X, Y).\nU(X, Y) :- T(Y, X).", target="U")
    prediction = predict_divergence(program, COUNTING)
    assert prediction.verdict == CONVERGES
    assert "acyclic" in prediction.reason


def test_cyclic_program_without_database_is_unknown():
    prediction = predict_divergence(TC, COUNTING)
    assert prediction.verdict == UNKNOWN
    assert "non-stable" in prediction.reason


def test_ground_cycle_over_counting_diverges_with_witness():
    prediction = predict_divergence(TC, COUNTING, CYCLE_DB)
    assert prediction.verdict == DIVERGES
    assert prediction.witness is not None
    assert prediction.witness.predicate == "T"
    assert "witness" in prediction.to_json()
    result = FixpointEngine().evaluate(TC, CYCLE_DB, COUNTING)
    assert not result.converged


def test_acyclic_data_over_counting_converges():
    prediction = predict_divergence(TC, COUNTING, DAG_DB)
    assert prediction.verdict == CONVERGES
    assert "acyclic on this database" in prediction.reason
    assert FixpointEngine().evaluate(TC, DAG_DB, COUNTING).converged


def test_stable_plus_chain_is_honestly_unknown_on_cycles():
    # counting-cap1024's ⊕-chain stabilizes (at the cap, step 1024 --
    # past any naive star probe), so a ground cycle is not a
    # divergence proof.
    prediction = predict_divergence(TC, COUNTING_CAP, CYCLE_DB)
    assert prediction.verdict == UNKNOWN
    assert prediction.witness is not None
    # The saturating fixpoint really does converge, given rounds to
    # reach the cap; unknown must be compatible with that.
    assert FixpointEngine().evaluate(TC, CYCLE_DB, COUNTING_CAP, max_iterations=5000).converged


def test_zero_weighted_edb_fact_downgrades_diverges_to_unknown():
    db = edge_db(("a", "b"), ("b", "a"))
    for fact in db.facts():
        db.set_weight(fact, 0)
        break
    prediction = predict_divergence(TC, COUNTING, db)
    assert prediction.verdict == UNKNOWN
    assert "zero-weighted" in prediction.reason


def test_unit_production_cycle_diverges_despite_finite_cfg():
    # T :- T is a unit cycle: the CFG language is finite but each fact
    # has infinitely many derivation trees, so the chain-boundedness
    # layer must decline and the ground-cycle layer must answer.
    program = parse_program("T(X, Y) :- E(X, Y).\nT(X, Y) :- T(X, Y).")
    db = edge_db(("a", "b"))
    prediction = predict_divergence(program, COUNTING, db)
    assert prediction.verdict == DIVERGES
    assert not FixpointEngine().evaluate(program, db, COUNTING).converged


def test_two_predicate_unit_cycle_diverges_despite_finite_cfg():
    # T -> S -> T is a unit cycle through two predicates: the chain
    # layer must decline here too, not only on a T :- T self-loop.
    program = parse_program(
        "T(X, Y) :- E(X, Y).\nT(X, Y) :- S(X, Y).\nS(X, Y) :- T(X, Y).", target="T"
    )
    db = edge_db(("a", "b"))
    prediction = predict_divergence(program, COUNTING, db)
    assert prediction.verdict == DIVERGES
    assert not FixpointEngine().evaluate(program, db, COUNTING).converged


def test_unproductive_chain_cycle_converges_without_grounding():
    program = parse_program(UNPRODUCTIVE_CHAIN, target="T")
    assert dependency_report(program).is_recursive()
    db = Database()
    for u, v in (("a", "b"), ("b", "a")):
        db.add("E", u, v)
        db.add("A", u, v)
        db.add("B", u, v)  # B-cycle in the data; S still derives nothing
    prediction = predict_divergence(program, COUNTING, db)
    assert prediction.verdict == CONVERGES
    assert "chain" in prediction.reason
    for strategy in FIXPOINT_STRATEGIES:
        result = solve(program, db, COUNTING, config=ExecutionConfig(strategy=strategy))
        assert result.converged


def test_stored_idb_seed_disarms_both_definite_layers():
    # A stored S fact disarms the chain-boundedness layer (the seed
    # could revive the unproductive cycle) AND the ground-cycle
    # diverges layer (the grounding counts the seed as given but the
    # fixpoint values it 0, so the cycle may carry nothing).  The only
    # honest answer is unknown -- and here the runtime does converge,
    # because S's sole support is the unvalued seed.
    program = parse_program(UNPRODUCTIVE_CHAIN, target="T")
    db = Database()
    db.add("E", "a", "b")
    db.add("A", "a", "a")
    db.add("B", "a", "a")
    db.add("S", "a", "b")
    prediction = predict_divergence(program, COUNTING, db)
    assert prediction.verdict == UNKNOWN
    assert "stored" in prediction.reason
    assert FixpointEngine().evaluate(program, db, COUNTING).converged


# -- divergence prediction vs runtime: the property ------------------------


def random_edge_db(seed: int, n: int, m: int) -> Database:
    rng = random.Random(seed)
    db = Database()
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            db.add("E", u, v)
    return db


@given(seed=st.integers(0, 5000), n=st.integers(3, 6), m=st.integers(3, 10))
@settings(max_examples=examples(30), deadline=None)
def test_definite_verdicts_match_runtime_across_strategies(seed, n, m):
    db = random_edge_db(seed, n, m)
    prediction = predict_divergence(TC, COUNTING, db)
    assert prediction.verdict in (CONVERGES, DIVERGES)  # db supplied: decidable here
    for strategy in FIXPOINT_STRATEGIES:
        result = solve(TC, db, COUNTING, config=ExecutionConfig(strategy=strategy))
        assert result.converged == (prediction.verdict == CONVERGES)


@given(seed=st.integers(0, 5000), n=st.integers(3, 6), m=st.integers(3, 10))
@settings(max_examples=examples(20), deadline=None)
def test_pruning_never_changes_target_values(seed, n, m):
    db = random_edge_db(seed, n, m)
    program = parse_program(DEAD_S, target="T")
    full = solve(program, db, BOOLEAN)
    lean = solve(program, db, BOOLEAN, config=ExecutionConfig(prune=True))
    assert {f: v for f, v in full.values.items() if f.predicate == "T"} == dict(lean.values)


# -- engine-entry enforcement ----------------------------------------------


def test_engine_rejects_unsafe_program_at_entry():
    program = parse_program("T(X, Y) :- E(X, X).", validate=False)
    db = edge_db(("a", "a"))
    with pytest.raises(ProgramValidationError) as excinfo:
        FixpointEngine().evaluate(program, db, BOOLEAN)
    assert any(d.code == "DL001" for d in excinfo.value.diagnostics)
    with pytest.raises(ProgramValidationError):
        FixpointEngine().evaluate(program, db, BOOLEAN)


def test_engine_validate_false_is_the_escape_hatch():
    # Arity-clashing dead rules: invalid, but harmlessly evaluable --
    # the mismatched atom can never match, so the engine still
    # computes T when explicitly told not to validate.
    program = parse_program(
        "T(X, Y) :- E(X, Y).\nA(X) :- E(X, Y).\nB(X) :- A(X, X).",
        target="T",
        validate=False,
    )
    db = edge_db(("a", "b"))
    with pytest.raises(ProgramValidationError):
        FixpointEngine().evaluate(program, db, BOOLEAN)
    result = FixpointEngine().evaluate(program, db, BOOLEAN, validate=False)
    assert result.value(next(iter(result.values))) is True


def test_solve_strict_fails_before_the_fixpoint_on_predicted_divergence():
    with pytest.raises(ProgramValidationError) as excinfo:
        solve(TC, CYCLE_DB, COUNTING, strict=True)
    assert any(d.code == "DL006" for d in excinfo.value.diagnostics)
    # Non-strict still runs (and honestly reports non-convergence).
    assert not solve(TC, CYCLE_DB, COUNTING).converged
    # Strict on convergent data is a no-op gate.
    assert solve(TC, DAG_DB, COUNTING, strict=True).converged


def test_strict_prune_solve_judges_the_pruned_grounding():
    # The only ground cycle lives in the dead U rules: the pruned solve
    # never grounds them, so it converges and DL006 must agree.
    program = parse_program(DEAD_CYCLIC_U, target="T")
    db = edge_db(("a", "b"), ("b", "c"))
    db.add("F", 0, 1)
    db.add("F", 1, 0)
    prune = ExecutionConfig(prune=True)
    assert solve(program, db, COUNTING, config=prune).converged
    assert solve(program, db, COUNTING, config=prune, strict=True).converged
    with pytest.raises(ProgramValidationError) as excinfo:
        solve(program, db, COUNTING, strict=True)
    assert any(d.code == "DL006" for d in excinfo.value.diagnostics)


def test_strict_solve_grounds_once():
    strict, _ = count_join_probes(lambda: solve(TC, DAG_DB, COUNTING, strict=True))
    plain, _ = count_join_probes(lambda: solve(TC, DAG_DB, COUNTING))
    assert strict == plain > 0


def test_session_strict_raises_on_invalid_program():
    program = parse_program("T(X, Y) :- E(X, X).", validate=False)
    db = edge_db(("a", "a"))
    with pytest.raises(ProgramValidationError):
        Session(program, db, strict=True)
    Session(TC, db, strict=True)  # clean program constructs fine


def test_session_analyze_reports_and_reuses_grounding():
    session = Session(TC, CYCLE_DB)
    session.ground()
    report = session.analyze(COUNTING)
    assert not report.ok
    assert report.divergence is not None and report.divergence.verdict == DIVERGES
    plain = session.analyze()
    assert plain.ok and plain.divergence is None


# -- full-report shape -----------------------------------------------------


def test_analyze_program_orders_errors_first_and_skips_prediction_on_errors():
    program = parse_program(
        "T(X, Y) :- E(X, X).\nS(X, Y) :- E(X, Y).",
        target="T",
        validate=False,
    )
    report = analyze_program(program, semiring=COUNTING)
    severities = [d.severity for d in report.diagnostics]
    assert severities == sorted(severities, key=("error", "warning", "info").index)
    assert not report.ok
    assert report.divergence is None  # skipped: validation already failed
    assert report.by_code("DL005")  # the SCC report is always present


def test_report_json_is_self_contained():
    report = analyze_program(TC, CYCLE_DB, semiring=COUNTING)
    payload = report.to_json()
    assert payload["ok"] is False  # DL006 error: predicted divergence
    assert payload["target"] == "T"
    assert payload["divergence"]["verdict"] == DIVERGES
    assert payload["dependencies"]["recursion"] == "linear"
    codes = {d["code"] for d in payload["diagnostics"]}
    assert "DL006" in codes and "DL005" in codes


def test_shipped_library_and_examples_are_analyzer_clean():
    from repro.lint import self_check_programs

    items = self_check_programs()
    assert len(items) >= 6
    for name, program, text in items:
        if program is None:
            program = parse_program(text)
        report = analyze_program(program)
        assert report.ok and not report.warnings(), name
