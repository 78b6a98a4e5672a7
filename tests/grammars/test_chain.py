"""Chain Datalog ⟷ grammars (Proposition 5.2)."""

import pytest

from repro.datalog import DatalogError, dyck1, reachability, transitive_closure
from repro.grammars import (
    CFG,
    GrammarError,
    cfg_to_chain_program,
    chain_program_to_cfg,
    dfa_to_chain_program,
    parse_regex,
    rpq_program,
)


def test_tc_corresponds_to_its_grammar():
    grammar = chain_program_to_cfg(transitive_closure())
    assert grammar.start == "T"
    assert grammar.terminals == {"E"}
    # T ← TE | E: the grammar of Section 5's example.
    rhss = {p.rhs for p in grammar.productions}
    assert rhss == {("E",), ("T", "E")}
    assert not grammar.is_finite()


def test_dyck_grammar_roundtrip():
    grammar = chain_program_to_cfg(dyck1())
    assert grammar.generate_words(4) >= {("L", "R"), ("L", "L", "R", "R"), ("L", "R", "L", "R")}
    program = cfg_to_chain_program(grammar)
    grammar_again = chain_program_to_cfg(program)
    assert grammar_again.generate_words(4) == grammar.generate_words(4)


def test_non_chain_program_rejected():
    with pytest.raises(DatalogError):
        chain_program_to_cfg(reachability())


def test_epsilon_production_rejected():
    g = CFG.from_rules("S -> a S | eps", start="S")
    with pytest.raises(GrammarError):
        cfg_to_chain_program(g)
    # after ε-removal it works
    program = cfg_to_chain_program(g.remove_epsilon())
    assert program.is_basic_chain()


def test_cfg_to_chain_program_shape():
    g = CFG.from_rules("S -> a S b | a b", start="S")
    program = cfg_to_chain_program(g)
    assert program.is_basic_chain()
    assert program.target == "S"
    assert program.edb_predicates == {"a", "b"}


def test_dfa_to_chain_program_language():
    from repro.api import solve
    from repro.datalog import Database, Fact
    from repro.semirings import BOOLEAN
    from repro.workloads import word_path

    dfa = parse_regex("ab*c").to_dfa()
    program, accepts_epsilon = dfa_to_chain_program(dfa)
    assert not accepts_epsilon
    assert program.is_basic_chain()
    assert program.is_left_linear_chain() or program.is_right_linear_chain()

    # Cross-check: the program derives S(0, k) on a word path iff the
    # DFA accepts the word.
    for word in ["ac", "abc", "abbc", "ab", "bc", "abcb"]:
        db = Database.from_labeled_edges(word_path(word))
        result = solve(program, db, BOOLEAN)
        derived = result.value(Fact("S", (0, len(word))))
        assert derived == dfa.accepts_word(tuple(word)), word


def test_rpq_program_from_string_and_regex():
    program, eps = rpq_program("a*")
    assert eps  # ε ∈ a*
    assert program.is_basic_chain()
    from repro.grammars import SymbolRegex

    program2, eps2 = rpq_program(SymbolRegex("a").plus())
    assert not eps2


def test_rpq_program_rejects_epsilon_only():
    from repro.grammars import EpsilonRegex

    with pytest.raises(GrammarError):
        rpq_program(EpsilonRegex())


def test_rpq_program_bad_type():
    with pytest.raises(TypeError):
        rpq_program(42)
