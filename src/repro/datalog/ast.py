"""Datalog abstract syntax (Section 2.1 of the paper).

A :class:`Program` is a set of :class:`Rule`\\ s ``R₀(x₀) :- R₁(x₁) ∧
... ∧ Rₘ(xₘ)``.  Predicates occurring in some head are IDBs, the rest
are EDBs; a designated *target* IDB is the output (predicate I/O
convention).  Terms are :class:`Variable`\\ s or :class:`Constant`\\ s.

The classification helpers implement the program classes the paper's
theorems quantify over: linear, monadic, chain (Section 5), connected
(Section 6.2).
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from typing import Dict, FrozenSet, Hashable, Iterable, Mapping, Optional, Tuple, Union

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
]


class DatalogError(ValueError):
    """Malformed program (unsafe rule, unknown target, arity clash...)."""


@dataclass(frozen=True)
class SourceSpan:
    """Where a parsed construct came from (1-based line/column).

    The parser (:mod:`repro.datalog.parser`) attaches spans to the
    atoms and rules it builds so the static analyzer
    (:mod:`repro.datalog.analysis`) can point its diagnostics at the
    offending source.  Programs built directly from the AST carry no
    spans (``span is None`` everywhere) and every diagnostic degrades
    gracefully to rule ``repr``.
    """

    line: int
    column: int
    end_line: int
    end_column: int
    source: str = ""

    def __repr__(self) -> str:
        return f"{self.line}:{self.column}"


@dataclass(frozen=True)
class Variable:
    """A Datalog variable (named, compared by name)."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Constant:
    """A Datalog constant from the active domain."""

    value: Hashable

    def __repr__(self) -> str:
        return repr(self.value)


Term = Union[Variable, Constant]


@dataclass(frozen=True)
class Atom:
    """An atom ``R(t₁, ..., tₖ)``.

    ``span`` is parser-provided provenance and deliberately *not* a
    dataclass field: two atoms parsed from different places compare
    (and hash) equal, exactly like AST-built atoms.
    """

    predicate: str
    terms: Tuple[Term, ...]

    span = None  # Optional[SourceSpan]; not a field, excluded from eq/hash

    def __init__(self, predicate: str, terms: Iterable[Term], span: "Optional[SourceSpan]" = None):
        object.__setattr__(self, "predicate", predicate)
        object.__setattr__(self, "terms", tuple(terms))
        if span is not None:
            object.__setattr__(self, "span", span)

    @property
    def arity(self) -> int:
        return len(self.terms)

    @property
    def variables(self) -> Tuple[Variable, ...]:
        return tuple(t for t in self.terms if isinstance(t, Variable))

    @property
    def constants(self) -> Tuple[Constant, ...]:
        return tuple(t for t in self.terms if isinstance(t, Constant))

    def is_ground(self) -> bool:
        return all(isinstance(t, Constant) for t in self.terms)

    def substitute(self, theta: Mapping[Variable, Term]) -> "Atom":
        """Apply a substitution (variables not in *theta* stay)."""
        return Atom(
            self.predicate,
            tuple(theta.get(t, t) if isinstance(t, Variable) else t for t in self.terms),
        )

    def to_fact(self) -> "Fact":
        """Convert a ground atom to a :class:`Fact`."""
        if not self.is_ground():
            raise DatalogError(f"atom {self} is not ground")
        return Fact(self.predicate, tuple(t.value for t in self.terms))

    def __repr__(self) -> str:
        inner = ", ".join(repr(t) for t in self.terms)
        return f"{self.predicate}({inner})"


class Fact:
    """A ground fact ``R(c₁, ..., cₖ)`` with raw constant values.

    Facts are the variable tags of provenance circuits: the input gate
    for EDB fact ``α`` carries the label ``Fact(α)`` (the ``x_α`` of
    Section 2.4).

    Immutable and slotted, with the hash ``hash((predicate, args))``
    computed once at construction: a fact is a dict key on every
    boundary it crosses, and a frozen dataclass would recompute that
    tuple hash on each insert and probe.  Equal only to another
    :class:`Fact` with the same predicate and arguments.
    """

    __slots__ = ("predicate", "args", "_hash")

    predicate: str
    args: Tuple[Hashable, ...]

    def __init__(self, predicate: str, args: Iterable[Hashable]):
        args = tuple(args)
        _set_predicate(self, predicate)
        _set_args(self, args)
        _set_hash(self, hash((predicate, args)))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self.predicate == other.predicate and self.args == other.args

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (self.__class__, (self.predicate, self.args))

    @property
    def arity(self) -> int:
        return len(self.args)

    def to_atom(self) -> Atom:
        return Atom(self.predicate, tuple(Constant(a) for a in self.args))

    def __repr__(self) -> str:
        inner = ",".join(str(a) for a in self.args)
        return f"{self.predicate}({inner})"


# The slot descriptors' setters: the only writers of a Fact's fields.
_set_predicate = Fact.predicate.__set__
_set_args = Fact.args.__set__
_set_hash = Fact._hash.__set__


@dataclass(frozen=True)
class Rule:
    """A rule ``head :- body``; an empty body is not allowed here
    (EDB facts live in the database, not the program).

    ``span`` mirrors :attr:`Atom.span`: parser provenance, not a
    dataclass field, excluded from equality and hashing.
    """

    head: Atom
    body: Tuple[Atom, ...]

    span = None  # Optional[SourceSpan]; not a field, excluded from eq/hash

    def __init__(self, head: Atom, body: Iterable[Atom], span: "Optional[SourceSpan]" = None):
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", tuple(body))
        if not self.body:
            raise DatalogError(f"rule {head} has an empty body")
        if span is not None:
            object.__setattr__(self, "span", span)

    @property
    def variables(self) -> FrozenSet[Variable]:
        out = set(self.head.variables)
        for atom in self.body:
            out.update(atom.variables)
        return frozenset(out)

    def is_safe(self) -> bool:
        """Range restriction: every head variable occurs in the body."""
        body_vars = set()
        for atom in self.body:
            body_vars.update(atom.variables)
        return set(self.head.variables) <= body_vars

    def body_predicates(self) -> Tuple[str, ...]:
        return tuple(a.predicate for a in self.body)

    def idb_atoms(self, idbs: FrozenSet[str]) -> Tuple[Atom, ...]:
        return tuple(a for a in self.body if a.predicate in idbs)

    def edb_atoms(self, idbs: FrozenSet[str]) -> Tuple[Atom, ...]:
        return tuple(a for a in self.body if a.predicate not in idbs)

    def is_initialization(self, idbs: FrozenSet[str]) -> bool:
        """A rule whose body contains no IDB atom (Section 2.1)."""
        return not self.idb_atoms(idbs)

    def is_linear(self, idbs: FrozenSet[str]) -> bool:
        """At most one IDB atom in the body."""
        return len(self.idb_atoms(idbs)) <= 1

    def is_chain(self) -> bool:
        """A chain rule (Section 5): ``P(x,y) :- Q₀(x,z₁) ∧ ... ∧ Qₖ(zₖ,y)``
        with binary predicates and distinct variables threading through."""
        if self.head.arity != 2:
            return False
        head_terms = self.head.terms
        if not all(isinstance(t, Variable) for t in head_terms):
            return False
        x, y = head_terms
        if x == y or not self.body:
            return False
        current = x
        seen = {x}
        for i, atom in enumerate(self.body):
            if atom.arity != 2:
                return False
            first, second = atom.terms
            if not (isinstance(first, Variable) and isinstance(second, Variable)):
                return False
            if first != current:
                return False
            is_last = i == len(self.body) - 1
            if is_last:
                if second != y:
                    return False
            else:
                if second in seen or second == y:
                    return False
                seen.add(second)
            current = second
        return True

    def is_connected(self) -> bool:
        """Connectedness (Section 6.2): the variable graph of the body
        is connected and contains every head variable."""
        body_vars: set[Variable] = set()
        adjacency: Dict[Variable, set[Variable]] = {}
        for atom in self.body:
            atom_vars = list(dict.fromkeys(atom.variables))
            body_vars.update(atom_vars)
            for v in atom_vars:
                adjacency.setdefault(v, set()).update(u for u in atom_vars if u != v)
        head_vars = set(self.head.variables)
        if not head_vars <= body_vars:
            return False
        if not body_vars:
            return True
        start = next(iter(body_vars))
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for neighbour in adjacency.get(node, ()):
                if neighbour not in seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
        return seen == body_vars

    def rename(self, suffix: str) -> "Rule":
        """Rename every variable with *suffix* (for standardizing apart)."""
        theta = {v: Variable(f"{v.name}{suffix}") for v in self.variables}
        return Rule(self.head.substitute(theta), tuple(a.substitute(theta) for a in self.body))

    def __repr__(self) -> str:
        body = " ∧ ".join(repr(a) for a in self.body)
        return f"{self.head} :- {body}"


@dataclass
class Program:
    """A Datalog program with a designated target IDB.

    Validates safety and arity consistency at construction.  The
    classification predicates (``is_linear`` etc.) select the
    fragments of Sections 4--6.
    """

    rules: Tuple[Rule, ...]
    target: str
    _idbs: FrozenSet[str] = field(init=False, repr=False)

    def __init__(self, rules: Iterable[Rule], target: Optional[str] = None, validate: bool = True):
        self.rules = tuple(rules)
        if not self.rules:
            raise DatalogError("a program needs at least one rule")
        idbs = frozenset(rule.head.predicate for rule in self.rules)
        self._idbs = idbs
        self.target = target if target is not None else self.rules[0].head.predicate
        if self.target not in idbs:
            raise DatalogError(f"target {self.target!r} is not an IDB of the program")
        if validate:
            self._validate()

    def _validate(self) -> None:
        """The construction-time subset of the static analyzer: safety
        (DL001) and arity consistency (DL002).  ``validate=False`` on
        the constructor skips it -- the escape hatch the analyzer tests
        use to build deliberately broken programs; the fixpoint entry
        points re-check through
        :func:`repro.datalog.analysis.require_valid` so an invalid
        program cannot reach evaluation unnoticed."""
        arities: Dict[str, int] = {}
        for rule in self.rules:
            if not rule.is_safe():
                raise DatalogError(f"DL001: unsafe rule (head variable not in body): {rule}")
            for atom in (rule.head, *rule.body):
                known = arities.setdefault(atom.predicate, atom.arity)
                if known != atom.arity:
                    raise DatalogError(
                        f"DL002: predicate {atom.predicate!r} used with arities {known} and {atom.arity}"
                    )

    # -- predicate sets --------------------------------------------------

    @property
    def idb_predicates(self) -> FrozenSet[str]:
        return self._idbs

    @property
    def edb_predicates(self) -> FrozenSet[str]:
        out: set[str] = set()
        for rule in self.rules:
            for atom in rule.body:
                if atom.predicate not in self._idbs:
                    out.add(atom.predicate)
        return frozenset(out)

    @property
    def predicates(self) -> FrozenSet[str]:
        return self.idb_predicates | self.edb_predicates

    def arity_of(self, predicate: str) -> int:
        for rule in self.rules:
            for atom in (rule.head, *rule.body):
                if atom.predicate == predicate:
                    return atom.arity
        raise DatalogError(f"unknown predicate {predicate!r}")

    # -- rule subsets -----------------------------------------------------

    def initialization_rules(self) -> Tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.is_initialization(self._idbs))

    def recursive_rules(self) -> Tuple[Rule, ...]:
        return tuple(r for r in self.rules if not r.is_initialization(self._idbs))

    def rules_for(self, predicate: str) -> Tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.head.predicate == predicate)

    # -- classification (paper fragments) ----------------------------------

    def is_linear(self) -> bool:
        """Every rule has at most one IDB body atom (Section 2.1)."""
        return all(rule.is_linear(self._idbs) for rule in self.rules)

    def is_monadic(self) -> bool:
        """Every IDB is unary (EDB arities unconstrained)."""
        return all(self.arity_of(p) == 1 for p in self._idbs)

    def is_basic_chain(self) -> bool:
        """Basic chain program (Section 5): every recursive rule is a
        chain rule, and initialization rules are chains too (single-
        atom chains at least)."""
        return all(rule.is_chain() for rule in self.rules)

    def is_connected(self) -> bool:
        return all(rule.is_connected() for rule in self.rules)

    def is_left_linear_chain(self) -> bool:
        """Chain program whose recursive rules have their IDB atom
        leftmost (corresponds to a left-linear = regular grammar)."""
        if not self.is_basic_chain():
            return False
        for rule in self.recursive_rules():
            idb_positions = [
                i for i, atom in enumerate(rule.body) if atom.predicate in self._idbs
            ]
            if idb_positions != [0]:
                return False
        return True

    def is_right_linear_chain(self) -> bool:
        """Chain program whose recursive rules have their IDB atom
        rightmost (right-linear = also regular)."""
        if not self.is_basic_chain():
            return False
        for rule in self.recursive_rules():
            idb_positions = [
                i for i, atom in enumerate(rule.body) if atom.predicate in self._idbs
            ]
            if idb_positions != [len(rule.body) - 1]:
                return False
        return True

    def dependency_graph(self) -> Dict[str, FrozenSet[str]]:
        """IDB → IDBs appearing in the bodies of its rules."""
        graph: Dict[str, set[str]] = {p: set() for p in self._idbs}
        for rule in self.rules:
            for atom in rule.body:
                if atom.predicate in self._idbs:
                    graph[rule.head.predicate].add(atom.predicate)
        return {p: frozenset(deps) for p, deps in graph.items()}

    def is_recursive(self) -> bool:
        """True iff some IDB depends on itself (directly or transitively)."""
        graph = self.dependency_graph()
        for start in graph:
            stack = list(graph[start])
            seen: set[str] = set()
            while stack:
                node = stack.pop()
                if node == start:
                    return True
                if node in seen:
                    continue
                seen.add(node)
                stack.extend(graph[node])
        return False

    def with_target(self, target: str) -> "Program":
        return Program(self.rules, target)

    def __repr__(self) -> str:
        lines = [f"Program(target={self.target!r})"]
        lines.extend(f"  {rule}" for rule in self.rules)
        return "\n".join(lines)
