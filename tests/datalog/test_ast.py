"""AST validation and the paper's program-class predicates."""

import pytest

from repro.datalog import (
    Atom,
    Constant,
    DatalogError,
    Fact,
    Program,
    Rule,
    Variable,
    bounded_example,
    dyck1,
    reachability,
    same_generation,
    transitive_closure,
    transitive_closure_nonlinear,
)

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


def test_atom_basics():
    atom = Atom("E", (X, Constant(3)))
    assert atom.arity == 2
    assert atom.variables == (X,)
    assert atom.constants == (Constant(3),)
    assert not atom.is_ground()


def test_atom_substitute_and_ground():
    atom = Atom("E", (X, Y)).substitute({X: Constant(1), Y: Constant(2)})
    assert atom.is_ground()
    assert atom.to_fact() == Fact("E", (1, 2))


def test_to_fact_requires_ground():
    with pytest.raises(DatalogError):
        Atom("E", (X, Y)).to_fact()


def test_fact_atom_roundtrip():
    fact = Fact("R", ("a", 1))
    assert fact.to_atom().to_fact() == fact


def test_fact_hash_is_the_field_tuple_hash():
    # Set and dict iteration orders, and the traces pinned on them,
    # depend on this value.
    for fact in (Fact("T", (1, 2)), Fact("S", ()), Fact("R", ["a", 1.5, None])):
        assert hash(fact) == hash((fact.predicate, fact.args))
    assert Fact("R", ["a", 1]).args == ("a", 1)


def test_fact_is_frozen_and_slotted():
    from dataclasses import FrozenInstanceError

    fact = Fact("T", (1, 2))
    with pytest.raises(FrozenInstanceError):
        fact.predicate = "S"
    with pytest.raises(FrozenInstanceError):
        fact.args = (2, 1)
    with pytest.raises(FrozenInstanceError):
        fact.weight = 3
    with pytest.raises(FrozenInstanceError):
        del fact.args
    assert not hasattr(fact, "__dict__")
    assert fact == Fact("T", (1, 2)) and hash(fact) == hash(Fact("T", (1, 2)))


def test_fact_equals_only_facts():
    fact = Fact("T", (1, 2))
    assert fact != Fact("T", (2, 1)) and fact != Fact("S", (1, 2))
    assert fact != ("T", (1, 2))
    assert fact != Atom("T", (Constant(1), Constant(2)))
    assert (fact == ("T", (1, 2))) is False
    assert fact.__eq__(("T", (1, 2))) is NotImplemented
    assert {fact: 1}.get(("T", (1, 2))) is None


def test_fact_repr_pickle_and_copies():
    import copy
    import pickle

    fact = Fact("R", ("a", 1))
    assert repr(fact) == "R(a,1)" and repr(Fact("P", ())) == "P()"
    for clone in (
        pickle.loads(pickle.dumps(fact)),
        pickle.loads(pickle.dumps(fact, protocol=0)),
        copy.copy(fact),
        copy.deepcopy(fact),
    ):
        assert type(clone) is Fact
        assert clone == fact and hash(clone) == hash(fact)
        assert clone.args == ("a", 1) and clone.predicate == "R"
    nested = copy.deepcopy({fact: [fact]})
    [(key, [value])] = nested.items()
    assert key == value == fact


def test_rule_safety():
    safe = Rule(Atom("T", (X, Y)), [Atom("E", (X, Y))])
    assert safe.is_safe()
    unsafe = Rule(Atom("T", (X, Z)), [Atom("E", (X, Y))])
    assert not unsafe.is_safe()
    with pytest.raises(DatalogError):
        Program([unsafe])


def test_empty_body_rejected():
    with pytest.raises(DatalogError):
        Rule(Atom("T", (X, Y)), [])


def test_arity_consistency_enforced():
    rules = [
        Rule(Atom("T", (X, Y)), [Atom("E", (X, Y))]),
        Rule(Atom("T", (X,)), [Atom("E", (X, X))]),
    ]
    with pytest.raises(DatalogError):
        Program(rules)


def test_target_must_be_idb():
    rule = Rule(Atom("T", (X, Y)), [Atom("E", (X, Y))])
    with pytest.raises(DatalogError):
        Program([rule], target="E")


def test_idb_edb_partition():
    tc = transitive_closure()
    assert tc.idb_predicates == {"T"}
    assert tc.edb_predicates == {"E"}
    assert tc.arity_of("T") == 2


def test_initialization_vs_recursive():
    tc = transitive_closure()
    assert len(tc.initialization_rules()) == 1
    assert len(tc.recursive_rules()) == 1


def test_linearity():
    assert transitive_closure().is_linear()
    assert reachability().is_linear()
    assert same_generation().is_linear()
    assert not transitive_closure_nonlinear().is_linear()
    assert not dyck1().is_linear()


def test_monadicity():
    assert reachability().is_monadic()
    assert not transitive_closure().is_monadic()


def test_chain_classification():
    assert transitive_closure().is_basic_chain()
    assert transitive_closure_nonlinear().is_basic_chain()
    assert dyck1().is_basic_chain()
    assert not reachability().is_basic_chain()  # unary head


def test_same_generation_is_chain():
    # Up(x,z) ∧ SG(z,w) ∧ Down(w,y) threads x→z→w→y: a chain rule.
    assert same_generation().is_basic_chain()


def test_chain_rule_shape_violations():
    # repeated variable breaks the chain threading
    bad = Rule(Atom("T", (X, Y)), [Atom("E", (X, X)), Atom("E", (X, Y))])
    assert not bad.is_chain()
    # head variables must be distinct
    loop = Rule(Atom("T", (X, X)), [Atom("E", (X, X))])
    assert not loop.is_chain()


def test_left_linearity():
    assert transitive_closure().is_left_linear_chain()
    assert not transitive_closure_nonlinear().is_left_linear_chain()
    assert not dyck1().is_left_linear_chain()
    # right-linear variant
    rules = [
        Rule(Atom("T", (X, Y)), [Atom("E", (X, Y))]),
        Rule(Atom("T", (X, Y)), [Atom("E", (X, Z)), Atom("T", (Z, Y))]),
    ]
    program = Program(rules)
    assert program.is_right_linear_chain()
    assert not program.is_left_linear_chain()


def test_connectedness():
    assert transitive_closure().is_connected()
    assert reachability().is_connected()
    assert not bounded_example().is_connected()  # A(x) ∧ T(z,y) is disconnected


def test_dependency_graph_and_recursion():
    tc = transitive_closure()
    assert tc.dependency_graph() == {"T": frozenset({"T"})}
    assert tc.is_recursive()
    ucq_like = Program([Rule(Atom("Q", (X,)), [Atom("R", (X,))])])
    assert not ucq_like.is_recursive()


def test_mutual_recursion_detected():
    rules = [
        Rule(Atom("A", (X,)), [Atom("B", (X,))]),
        Rule(Atom("B", (X,)), [Atom("A", (X,)), Atom("E", (X, X))]),
        Rule(Atom("A", (X,)), [Atom("S", (X,))]),
    ]
    program = Program(rules, target="A")
    assert program.is_recursive()


def test_rule_rename_standardizes_apart():
    rule = transitive_closure().rules[1]
    renamed = rule.rename("_0")
    assert renamed.variables.isdisjoint(rule.variables)
    assert renamed.head.predicate == rule.head.predicate


def test_with_target():
    program = dyck1().with_target("S")
    assert program.target == "S"
    with pytest.raises(DatalogError):
        dyck1().with_target("Nope")


def test_reprs():
    assert "T(X, Y)" in repr(transitive_closure())
    assert repr(Fact("E", (1, 2))) == "E(1,2)"
