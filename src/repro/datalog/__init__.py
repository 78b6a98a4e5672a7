"""Datalog over semirings (Sections 2.1, 2.3, 2.4 of the paper).

The engine: AST + parser, annotated databases backed by an interned
columnar fact store (:mod:`repro.datalog.store`, DESIGN.md §8),
grounding into one id-space :class:`ColumnarGroundProgram` (relevant
grounding served by the columnar join engine by default with the naive
nested-loop engine as the selectable reference oracle, full grounding
by the paper's cross product -- see :mod:`repro.datalog.grounding` and
DESIGN.md §8), fixpoint evaluation over any naturally ordered semiring
via the :class:`FixpointEngine` (delta-driven columnar rounds by
default, the paper's naive loop as the selectable reference oracle --
see :mod:`repro.datalog.seminaive`), proof-tree enumeration (tight trees,
Prop 2.4), CQ expansions of linear programs (Thm 4.5) and a library
of the paper's example programs.
"""

from .analysis import (
    AnalysisReport,
    DependencyReport,
    Diagnostic,
    DivergencePrediction,
    ProgramValidationError,
    analyze_program,
    dead_rules,
    dependency_report,
    predict_divergence,
    prune_unreachable,
    reachable_predicates,
    require_valid,
    tarjan_sccs,
    validation_diagnostics,
)
from .ast import Atom, Constant, DatalogError, Fact, Program, Rule, SourceSpan, Term, Variable
from .database import Database
from .evaluation import DivergenceError, EvaluationResult
from .expansions import (
    ConjunctiveQuery,
    canonical_database,
    expansion_of_word,
    expansion_words,
    expansions,
    expansions_up_to,
    unify_atoms,
)
from .grounding import (
    GROUNDING_STATS,
    ColumnarGroundProgram,
    GroundingStats,
    GroundRule,
    columnar_grounding,
    count_join_probes,
    derivable_facts,
    full_grounding,
    relevant_grounding,
)
from .incremental import MaintainedFixpoint
from .seminaive import FixpointEngine
from .store import (
    GLOBAL_SYMBOLS,
    ColumnarRelation,
    ColumnarStore,
    DeltaView,
    SymbolTable,
    default_symbols,
    scoped_symbols,
)
from .magic import (
    magic_grounding,
    magic_specialize,
    magic_specialize_sink,
    specialized_fact,
)
from .library import (
    bounded_example,
    dyck1,
    reachability,
    same_generation,
    transitive_closure,
    transitive_closure_nonlinear,
)
from .parser import ParseError, parse_atom, parse_program, parse_rule
from .prooftrees import (
    ProofTree,
    count_tight_proof_trees,
    enumerate_proof_trees,
    enumerate_tight_proof_trees,
    max_tight_fringe,
    provenance_by_proof_trees,
)

__all__ = [
    "Variable",
    "Constant",
    "Term",
    "Atom",
    "Fact",
    "Rule",
    "Program",
    "DatalogError",
    "SourceSpan",
    "Database",
    "Diagnostic",
    "DependencyReport",
    "DivergencePrediction",
    "AnalysisReport",
    "ProgramValidationError",
    "analyze_program",
    "validation_diagnostics",
    "require_valid",
    "predict_divergence",
    "dependency_report",
    "tarjan_sccs",
    "reachable_predicates",
    "dead_rules",
    "prune_unreachable",
    "parse_program",
    "parse_rule",
    "parse_atom",
    "ParseError",
    "GroundRule",
    "ColumnarGroundProgram",
    "GroundingStats",
    "SymbolTable",
    "GLOBAL_SYMBOLS",
    "default_symbols",
    "scoped_symbols",
    "ColumnarRelation",
    "ColumnarStore",
    "DeltaView",
    "GROUNDING_STATS",
    "count_join_probes",
    "full_grounding",
    "relevant_grounding",
    "columnar_grounding",
    "derivable_facts",
    "EvaluationResult",
    "DivergenceError",
    "FixpointEngine",
    "MaintainedFixpoint",
    "ProofTree",
    "enumerate_tight_proof_trees",
    "enumerate_proof_trees",
    "provenance_by_proof_trees",
    "count_tight_proof_trees",
    "max_tight_fringe",
    "ConjunctiveQuery",
    "unify_atoms",
    "expansions",
    "expansions_up_to",
    "expansion_of_word",
    "expansion_words",
    "canonical_database",
    "transitive_closure",
    "transitive_closure_nonlinear",
    "magic_specialize",
    "magic_specialize_sink",
    "magic_grounding",
    "specialized_fact",
    "reachability",
    "bounded_example",
    "dyck1",
    "same_generation",
]
