"""Workload ``solve_cold``: one closed-loop caller runs a fixed suite of
cold ``repro.api.solve()`` calls with the default ``ExecutionConfig``.

Each call parses its program from ``examples/programs/*.dl`` and gets a
fresh copy of its generated database, so no cache of an earlier call
survives into the next.  Grounding and the fixpoint are almost all of
the time; construct, compile, evaluate, maintain and serve do no work.
The strict COUNTING member also runs the analyzer, whose divergence
prediction grounds the program once more before the solve does.

Every database is a fixed shape with its vertices renamed by the seed
(``common.Relabel``).  The Dyck-1 member uses
``random_bracket_graph(28, 224)``: at this size it costs more than a TC
call, so the median call of the suite is the TC-boolean one.

Unit operation: one parse + ``solve()`` call.  Pass: the whole suite.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List, Optional

from common import SHAPE_SEED, Measures, Relabel, Tally, read_program_text

import repro.datalog.parser as parser
from repro import api
from repro.api import ExecutionConfig
from repro.datalog.database import Database
from repro.semirings import BOOLEAN, COUNTING, TROPICAL
from repro.workloads import complete_dag, random_digraph, random_weights
from repro.workloads.labeled import random_bracket_graph

COVERAGE_LAYERS = ("parse", "analyze", "ground", "fixpoint")

#: The reference the suite's answers are checked against.
COLUMNAR = ExecutionConfig(engine="columnar", strategy="columnar")

#: Vertices of the largest input, the same-generation forest.
VERTICES = 400


@dataclass
class Member:
    label: str
    text: str
    database: Database
    semiring: object
    weights: Optional[dict] = None
    strict: bool = False
    expected: Optional[dict] = None


def sg_forest(num_vertices: int, seed: int) -> Database:
    """A random forest as up/down parent edges plus n/2 random flat pairs."""
    rng = random.Random(seed)
    database = Database()
    for child in range(1, num_vertices):
        parent = rng.randrange(child)
        database.add("U", child, parent)
        database.add("D", parent, child)
    for _ in range(num_vertices // 2):
        database.add("F", rng.randrange(num_vertices), rng.randrange(num_vertices))
    return database


def setup(seed: int) -> List[Member]:
    tc = read_program_text("transitive_closure.dl")
    rename = Relabel(VERTICES, seed)
    digraph = random_digraph(96, 288, seed=SHAPE_SEED)
    bracket = Database.from_labeled_edges(random_bracket_graph(28, 224, seed=SHAPE_SEED))
    members = [
        Member("tc-boolean", tc, rename.database(digraph), BOOLEAN),
        Member(
            "tc-tropical",
            tc,
            rename.database(digraph),
            TROPICAL,
            weights=rename.weights(random_weights(digraph, seed=SHAPE_SEED)),
        ),
        Member("dyck-boolean", read_program_text("dyck.dl"), rename.database(bracket), BOOLEAN),
        Member(
            "sg-boolean",
            read_program_text("same_generation.dl"),
            rename.database(sg_forest(VERTICES, SHAPE_SEED)),
            BOOLEAN,
        ),
        Member("tc-counting-strict", tc, rename.database(complete_dag(32)), COUNTING, strict=True),
    ]
    for member in members:
        reference = api.solve(
            parser.parse_program(member.text),
            member.database.copy(),
            member.semiring,
            config=COLUMNAR,
            weights=member.weights,
        )
        member.expected = dict(reference.values)
    return members


def measure(members: List[Member], seconds: float, tally: Tally, tracer=None) -> Measures:
    out = Measures()
    out.calibrate()
    deadline = time.perf_counter() + seconds
    while True:
        for member in members:
            database = member.database.copy()
            try:
                with out.timed(member.label, op=True):
                    # Looked up on the module at call time, so a traced
                    # run sees the call.
                    program = parser.parse_program(member.text)
                    result = api.solve(
                        program,
                        database,
                        member.semiring,
                        weights=member.weights,
                        strict=member.strict,
                    )
            except Exception as exc:  # a failed call is counted, not fatal
                tally.error(member.label, exc)
                continue
            out.calibrate()
            tally.check(
                result.converged and dict(result.values) == member.expected,
                f"{member.label}: values differ from the columnar engine",
            )
        out.passes += 1
        if time.perf_counter() >= deadline:
            return out


def close(members) -> None:
    pass


def layer_metrics(members, measures) -> dict:
    return {}
