"""Circuits and formulas over semirings (Sections 2.5 and 3).

* :class:`Circuit` / :class:`CircuitBuilder` -- the array-backed
  fan-in-2 DAG representation and its constructor.
* :mod:`~repro.circuits.evaluate` -- linear-time bottom-up evaluation
  over any semiring, plus :func:`crosscheck_fixpoint`, the bridge that
  compares circuit outputs against the Datalog
  :class:`~repro.datalog.seminaive.FixpointEngine`.
* :mod:`~repro.circuits.runtime` -- the compiled evaluation runtime
  (DESIGN.md §7): :class:`CompiledCircuit` with fused per-semiring
  kernels (``evaluate``, ``evaluate_batch`` and 64-wide
  bitset-parallel ``evaluate_boolean_batch``), :func:`compile_circuit`
  that caches it on its circuit, and the dirty-cone
  :class:`IncrementalEvaluator` for sparse re-valuation.
* :mod:`~repro.circuits.transform` -- circuit → formula expansion
  (Prop 3.3) and Brent/Wegener depth balancing (Thm 3.2).
* :mod:`~repro.circuits.polynomials` -- canonical ``Sorp(X)``
  polynomial extraction and absorptive-equivalence decision.
* :mod:`~repro.circuits.metrics` -- size/depth measurement for the
  Table-1 benchmarks.
"""

from .circuit import OP_ADD, OP_CONST0, OP_CONST1, OP_MUL, OP_VAR, Circuit, CircuitBuilder
from .evaluate import (
    crosscheck_fixpoint,
    evaluate,
    evaluate_all,
    evaluate_boolean,
    reference_evaluate_all,
    reference_evaluate_boolean,
)
from .metrics import CircuitMetrics, measure
from .runtime import CompiledCircuit, IncrementalEvaluator, compile_circuit
from .polynomials import (
    canonical_polynomial,
    equivalent_over_absorptive,
    produced_polynomial,
    random_equivalence_check,
)
from .serialize import from_json, to_dot, to_json
from .transform import (
    FormulaTree,
    balance_formula,
    circuit_to_formula,
    circuit_to_tree,
    formula_depth_bound,
    tree_to_formula,
)

__all__ = [
    "OP_VAR",
    "OP_CONST0",
    "OP_CONST1",
    "OP_ADD",
    "OP_MUL",
    "Circuit",
    "CircuitBuilder",
    "evaluate",
    "evaluate_all",
    "evaluate_boolean",
    "reference_evaluate_all",
    "reference_evaluate_boolean",
    "crosscheck_fixpoint",
    "CompiledCircuit",
    "compile_circuit",
    "IncrementalEvaluator",
    "CircuitMetrics",
    "measure",
    "canonical_polynomial",
    "produced_polynomial",
    "equivalent_over_absorptive",
    "random_equivalence_check",
    "FormulaTree",
    "circuit_to_formula",
    "circuit_to_tree",
    "tree_to_formula",
    "balance_formula",
    "formula_depth_bound",
    "to_json",
    "from_json",
    "to_dot",
]
