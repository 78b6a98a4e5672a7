"""Boundedness analysis (Section 4, Proposition 5.5).

Boundedness over the Boolean semiring is undecidable in general
[12, 16], so this module offers a portfolio:

* :func:`chain_program_boundedness` -- **exact** for basic chain
  programs over any absorptive semiring: boundedness ⟺ finiteness of
  the corresponding CFG (Proposition 5.5), decidable in polynomial
  time.
* :func:`expansion_boundedness_certificate` -- a sound *boundedness*
  certifier for linear programs over ``Chom`` semirings via Theorem
  4.6: find ``N`` such that every expansion in a lookahead window
  beyond ``N`` receives a homomorphism from some expansion ≤ ``N``.
  A found ``N`` is a proof for the window and strong evidence overall
  (for the CGKV-style programs treated in Section 6.2 it is
  conclusive when the window exceeds the automaton's period).
* :func:`empirical_iteration_probe` -- Definition 4.1 head-on: run
  the Boolean fixpoint on growing inputs and watch the iteration
  count.  Flat ⇒ evidence of boundedness; growing ⇒ *proof* of
  unboundedness on the probed family.
* :func:`circuit_equivalence_probe` -- the same question asked of
  *circuits*: sample random Boolean valuations 64 at a time through
  the bitset-parallel runtime (``compile_circuit(c)
  .evaluate_boolean_batch``, :mod:`repro.circuits.runtime`) and compare
  two circuits -- e.g. the ``k``-layer truncation against a deeper
  unrolling -- on every sample.  A mismatch is a concrete
  unboundedness witness at level ``k``; agreement on a large sample
  is the Monte-Carlo face of the Corollary 4.7 equivalence (Boolean
  agreement suffices over ``Chom``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..circuits.circuit import Circuit
from ..circuits.runtime import compile_circuit
from ..datalog.ast import Program
from ..datalog.database import Database
from ..datalog.expansions import ConjunctiveQuery, expansions
from ..datalog.grounding import derivable_facts
from ..grammars.chain import chain_program_to_cfg
from .homomorphism import has_homomorphism

__all__ = [
    "BoundednessReport",
    "chain_program_boundedness",
    "expansion_boundedness_certificate",
    "empirical_iteration_probe",
    "circuit_equivalence_probe",
    "analyze_boundedness",
]


@dataclass
class BoundednessReport:
    """Outcome of a boundedness analysis.

    ``bounded`` is ``True``/``False`` when the method is conclusive
    for the asked question, ``None`` when only evidence was gathered.
    """

    program_target: str
    method: str
    bounded: Optional[bool]
    certificate: Optional[int] = None
    details: str = ""
    evidence: List[Tuple[int, int]] = field(default_factory=list)

    def __repr__(self) -> str:
        verdict = {True: "BOUNDED", False: "UNBOUNDED", None: "INCONCLUSIVE"}[self.bounded]
        extra = f", k={self.certificate}" if self.certificate is not None else ""
        return f"BoundednessReport({self.program_target}: {verdict} via {self.method}{extra})"


def chain_program_boundedness(program: Program) -> BoundednessReport:
    """Proposition 5.5: exact decision for basic chain programs.

    The program is bounded over **any** absorptive semiring iff its
    CFG is finite; the certificate is the longest accepted word length
    (the fixpoint is reached within that many rounds).
    """
    grammar = chain_program_to_cfg(program)
    if grammar.is_finite():
        normalized = grammar.normalized()
        words = normalized.generate_words(max_length=_finite_word_cap(normalized))
        longest = max((len(w) for w in words), default=0)
        return BoundednessReport(
            program.target,
            method="cfg-finiteness",
            bounded=True,
            certificate=max(longest, 1),
            details=f"CFG finite; longest word has length {longest}",
        )
    return BoundednessReport(
        program.target,
        method="cfg-finiteness",
        bounded=False,
        details="CFG is infinite (dependency cycle among useful nonterminals)",
    )


def _finite_word_cap(grammar) -> int:
    # An acyclic, ε/unit-free grammar derives words of length at most
    # (max rhs length) ** (#nonterminals); keep a generous small cap.
    max_rhs = max((len(p.rhs) for p in grammar.productions), default=1)
    return max(1, max_rhs) ** max(1, len(grammar.nonterminals))


def expansion_boundedness_certificate(
    program: Program,
    max_certificate: int = 6,
    window: int = 4,
) -> BoundednessReport:
    """Theorem 4.6 certifier for linear programs over ``Chom``.

    Searches for the smallest ``N ≤ max_certificate`` such that every
    expansion with ``N < steps ≤ N + window`` recursive applications
    is subsumed (receives a homomorphism from) some expansion with
    ``≤ N`` applications.  Homomorphism-subsumed expansions stay
    subsumed under further unfolding for the linear programs treated
    here, so the window check is the practical content of the theorem.
    """
    if not program.is_linear():
        return BoundednessReport(
            program.target,
            method="expansion-homomorphism",
            bounded=None,
            details="program is not linear; expansion machinery unavailable",
        )
    by_steps: List[List[ConjunctiveQuery]] = [
        expansions(program, i) for i in range(max_certificate + window + 1)
    ]
    for n in range(max_certificate + 1):
        base = [cq for group in by_steps[: n + 1] for cq in group]
        if not base:
            continue
        covered = True
        for later_group in by_steps[n + 1 : n + window + 1]:
            for later in later_group:
                if not any(has_homomorphism(early, later) for early in base):
                    covered = False
                    break
            if not covered:
                break
        if covered:
            return BoundednessReport(
                program.target,
                method="expansion-homomorphism",
                bounded=True,
                certificate=n + 1,
                details=(
                    f"every expansion with steps in ({n}, {n + window}] is "
                    f"homomorphically subsumed by an expansion with ≤ {n} steps"
                ),
            )
    return BoundednessReport(
        program.target,
        method="expansion-homomorphism",
        bounded=None,
        details=(
            f"no certificate ≤ {max_certificate} with window {window}; "
            "program is likely unbounded"
        ),
    )


def empirical_iteration_probe(
    program: Program,
    instance_family: Callable[[int], Database],
    sizes: Sequence[int],
) -> BoundednessReport:
    """Definition 4.1 probe: Boolean fixpoint rounds across input sizes.

    A strictly growing profile proves unboundedness (the rounds exceed
    every constant on the family); a flat profile is evidence of
    boundedness.  The rounds are those of the Boolean closure
    (:func:`~repro.datalog.grounding.derivable_facts`), which every
    fixpoint strategy and join engine takes identically.
    """
    evidence = [
        (size, derivable_facts(program, instance_family(size))[1]) for size in sizes
    ]
    iteration_counts = [it for _size, it in evidence]
    growing = all(b > a for a, b in zip(iteration_counts, iteration_counts[1:]))
    flat = len(set(iteration_counts)) == 1
    if growing and len(sizes) >= 3:
        return BoundednessReport(
            program.target,
            method="iteration-probe",
            bounded=False,
            details="fixpoint rounds grow strictly with input size",
            evidence=evidence,
        )
    if flat:
        return BoundednessReport(
            program.target,
            method="iteration-probe",
            bounded=None,
            certificate=iteration_counts[0] if iteration_counts else None,
            details="fixpoint rounds constant on the probed family (evidence only)",
            evidence=evidence,
        )
    return BoundednessReport(
        program.target,
        method="iteration-probe",
        bounded=None,
        details="mixed iteration profile",
        evidence=evidence,
    )


def circuit_equivalence_probe(
    first: Circuit,
    second: Circuit,
    trials: int = 256,
    seed: int = 0,
    density: float = 0.5,
    first_output: Optional[int] = None,
    second_output: Optional[int] = None,
) -> Optional[Tuple[List, int]]:
    """Randomized Boolean equivalence probe between two circuits.

    Draws *trials* random true-variable sets over the union of both
    circuits' variables (each variable true with probability
    *density*) and evaluates both circuits on all of them through the
    bitset-parallel batch runtime -- 64 assignments per ``|``/``&``
    pass, so the probe costs ``trials / 64`` circuit traversals per
    side instead of *trials*.

    Returns ``None`` when every sample agrees, otherwise the first
    disagreeing ``(true_variables, index)`` witness as a tuple of the
    assignment's true set and its trial index.  Used to cross-examine
    a claimed boundedness certificate: compare the ``k``-layer
    circuit against a deeper unrolling of the same program.
    """
    rng = random.Random(seed)
    variables = sorted(set(first.variables()) | set(second.variables()), key=repr)
    batches = [
        [var for var in variables if rng.random() < density] for _ in range(trials)
    ]
    first_values = compile_circuit(first).evaluate_boolean_batch(batches, first_output)
    second_values = compile_circuit(second).evaluate_boolean_batch(batches, second_output)
    for index, (a, b) in enumerate(zip(first_values, second_values)):
        if a != b:
            return (batches[index], index)
    return None


def analyze_boundedness(
    program: Program,
    instance_family: Optional[Callable[[int], Database]] = None,
    sizes: Sequence[int] = (4, 8, 12, 16),
) -> BoundednessReport:
    """Portfolio dispatch: exact for chain programs, Theorem 4.6
    certificates for linear ones, empirical probe as a fallback."""
    if program.is_basic_chain():
        return chain_program_boundedness(program)
    if program.is_linear():
        report = expansion_boundedness_certificate(program)
        if report.bounded is not None:
            return report
    if instance_family is not None:
        return empirical_iteration_probe(program, instance_family, sizes)
    return BoundednessReport(
        program.target,
        method="none",
        bounded=None,
        details="no applicable decision procedure; supply an instance family to probe",
    )
