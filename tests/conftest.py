"""Shared fixtures: the paper's running examples."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.datalog import Database, Fact, scoped_symbols, transitive_closure

#: ``--hypothesis-profile ci``: the CI job runs the generated-program,
#: grounding-engine, columnar-fixpoint, maintainer stream-machine,
#: analyzer and columnar-store properties at this many examples each
#: (``tests.oracle.examples``), since every new program shape is new
#: generated join code and new ground rows for the fixpoint kernel and
#: the DL006 cycle search to read, every stream is a new run of seeds
#: and repairs through that kernel, and every join level reads a
#: pattern index the store properties check against a full scan.
settings.register_profile("ci", max_examples=1000)


@pytest.fixture(scope="session", autouse=True)
def _private_symbol_scope():
    """Intern into a session-private symbol table by default.

    The process-wide ``GLOBAL_SYMBOLS`` is append-only for the life of
    the process (src/repro/datalog/store.py), so the suite -- which
    churns through thousands of throwaway constants -- scopes its
    interning instead of growing the table every run.  Tests that pin
    the global table's behaviour reference ``GLOBAL_SYMBOLS``
    explicitly and are unaffected.
    """
    with scoped_symbols():
        yield


@pytest.fixture
def figure1_db() -> Database:
    """The exact EDB relation of Figure 1 (7 edges)."""
    edges = [
        ("s", "u1"),
        ("s", "u2"),
        ("u1", "v1"),
        ("u1", "v2"),
        ("u2", "v2"),
        ("v1", "t"),
        ("v2", "t"),
    ]
    return Database.from_edges(edges)


@pytest.fixture
def figure1_fact() -> Fact:
    return Fact("T", ("s", "t"))


@pytest.fixture
def tc_program():
    return transitive_closure()
