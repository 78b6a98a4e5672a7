"""Coverage for remaining public helpers across packages."""

import importlib
import pkgutil

import repro
from repro.analysis import dominance_ratio
from repro.circuits import CircuitBuilder, measure
from repro.grammars import parse_regex, product_graph
from repro.semirings import BOOLEAN, COUNTING, TROPICAL


def test_product_graph_helpers():
    dfa = parse_regex("ab").to_dfa()
    product = product_graph([(0, "a", 1), (1, "b", 2)], dfa)
    assert product.source_node(0) == (0, dfa.start)
    accepts = product.accept_nodes(2)
    assert all(state in dfa.accepts for _v, state in accepts)
    assert product.vertices == {0, 1, 2}
    assert product.size == len(product.database)


def test_metrics_as_dict():
    b = CircuitBuilder()
    c = b.build(b.add(b.var("x"), b.var("y")))
    payload = measure(c).as_dict()
    assert payload["size"] == 3
    assert payload["is_formula"] is True


def test_dominance_ratio_detects_growth():
    ns = [8, 16, 32, 64]
    flat = dominance_ratio(ns, [5 * n for n in ns], "n")
    growing = dominance_ratio(ns, [n * n for n in ns], "n")
    assert flat < growing


def test_close_under_ops_generates_new_elements():
    elements = COUNTING.close_under_ops([2, 3], rounds=1)
    assert 5 in elements  # 2 + 3
    assert 6 in elements  # 2 · 3


def test_pairwise_distinct():
    assert TROPICAL.pairwise_distinct([1.0, 1.0, 2.0]) == [1.0, 2.0]


def test_stability_index_of_booleans():
    assert BOOLEAN.stability_index(True) == 0
    assert BOOLEAN.stability_index(False) == 0


def test_bellman_ford_unreachable_sink_not_in_graph():
    from repro.constructions import bellman_ford_circuit
    from repro.datalog import Database
    from repro.circuits import canonical_polynomial

    db = Database.from_edges([(0, 1)])
    circuit = bellman_ford_circuit(db, 0, "nowhere")
    assert canonical_polynomial(circuit).is_zero()


def test_formula_tree_metrics():
    from repro.circuits import FormulaTree

    tree = FormulaTree.combine(3, FormulaTree.var("x"), FormulaTree.var("y"))
    assert tree.depth() == 1
    assert tree.size() == 3
    assert tree.leaves == 2


def test_sweep_report_without_claims():
    from repro.analysis import SweepReport

    report = SweepReport("none", claimed_size=None, claimed_depth=None)
    for n in (2, 4, 8):
        report.add(n=n, m=n, size=n, depth=1)
    assert report.size_ok() and report.depth_ok()
    assert "none" in report.render()


def test_every_all_entry_resolves():
    """A name left in an ``__all__`` after its definition went fails
    ``from module import *``; catch it for every module of the package."""
    stale = []
    modules = [repro.__name__] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, repro.__name__ + ".")
    ]
    for name in modules:
        module = importlib.import_module(name)
        stale += [f"{name}.{entry}" for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert len(modules) > 40
    assert stale == []
