"""Degrade-to-recompute for differential maintenance (DESIGN.md §12).

:class:`repro.api.StreamSession` is the streaming wrapper around a
:class:`MaintainedFixpoint` that must never surface a maintainer
failure: it detaches the broken maintainer, keeps answering exactly
(via full recompute), reports the write as applied -- the database
mutation lands before maintainer notification, so it is durable --
and re-attaches a fresh maintainer on the next clean write.  The
maintainer is crashed here by patching one of its internal passes to
raise a set number of times.
"""

import pytest

from repro.api import Session, database_fingerprint
from repro.datalog import (
    Database,
    DatalogError,
    Fact,
    MaintainedFixpoint,
    transitive_closure,
)
from repro.semirings import BOOLEAN, TROPICAL

TC = transitive_closure()
EDGES = [(0, 1), (1, 2), (2, 3)]


def fresh(edges=EDGES):
    return Database.from_edges(edges)


class MaintainerCrash(RuntimeError):
    """The failure the patched maintainer pass raises."""


def crash(monkeypatch, method, times):
    """Make ``MaintainedFixpoint.<method>`` raise on its next *times*
    calls, then behave normally again."""
    original = getattr(MaintainedFixpoint, method)
    remaining = {"n": times}

    def crashing(self, *args, **kwargs):
        if remaining["n"] > 0:
            remaining["n"] -= 1
            raise MaintainerCrash(f"{method} crashed")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(MaintainedFixpoint, method, crashing)


def expected_closure(session):
    return {
        fact for fact, value in session.solve(BOOLEAN).values.items() if value
    }


# -- MaintainedFixpoint ----------------------------------------------------


def test_maintainer_crash_propagates_from_the_write(monkeypatch):
    # Only the stream wrapper degrades; a bare maintainer surfaces the
    # failure to whoever wrote.
    fixpoint = MaintainedFixpoint(TC, fresh())
    crash(monkeypatch, "_reground", 1)
    with pytest.raises(MaintainerCrash):
        fixpoint.insert(Fact("E", (3, 4)))


# -- StreamSession degrade-to-recompute ------------------------------------


def test_stream_degrades_and_keeps_answering_exactly(monkeypatch):
    session = Session(TC, fresh())
    stream = session.stream()
    crash(monkeypatch, "_reground", 1)
    # The first write crashes the maintainer mid-maintenance; the
    # stream degrades instead of surfacing the fault...
    assert stream.insert(Fact("E", (3, 4))) is True
    assert stream.degraded is True
    assert stream.degradations == 1
    assert "MaintainerCrash" in stream.last_degrade_reason
    # ...and the write is durable: the database took it before the
    # maintainer was notified, and reads (now full recomputes) see it.
    assert stream.value(Fact("T", (0, 4))) is True
    assert stream.values(BOOLEAN) == {f: True for f in expected_closure(session)}


def test_degraded_stream_reattaches_on_next_clean_write(monkeypatch):
    session = Session(TC, fresh())
    stream = session.stream()
    crash(monkeypatch, "_reground", 1)
    stream.insert(Fact("E", (3, 4)))
    assert stream.degraded is True
    # The crash healed: the next write rebuilds a fresh maintainer from
    # current database state and maintenance resumes differentially.
    assert stream.insert(Fact("E", (4, 5))) is True
    assert stream.degraded is False
    assert stream.degradations == 1
    assert stream.fixpoint is not None
    assert stream.value(Fact("T", (0, 5))) is True


def test_stream_stays_degraded_while_faults_persist(monkeypatch):
    session = Session(TC, fresh())
    stream = session.stream(BOOLEAN)
    # Every fixpoint kernel run crashes, re-attach included (tracking
    # BOOLEAN seeds its state through _run).
    crash(monkeypatch, "_run", 1000)
    stream.insert(Fact("E", (3, 4)))
    stream.insert(Fact("E", (4, 5)))
    retracted = stream.retract(Fact("E", (0, 1)))
    assert retracted == Fact("E", (0, 1))
    assert stream.degraded is True
    assert stream.degradations >= 2
    # Every answer is still exactly the recompute answer.
    assert stream.value(Fact("T", (1, 5))) is True
    assert stream.value(Fact("T", (0, 2))) is False
    closure = expected_closure(session)
    assert stream.values(BOOLEAN) == {f: True for f in closure}


def test_reweight_crash_degrades_and_the_weight_is_visible(monkeypatch):
    session = Session(TC, fresh())
    stream = session.stream(TROPICAL)
    crash(monkeypatch, "_run", 1)
    assert stream.set_weight(Fact("E", (0, 1)), 5.0) is None
    assert stream.degraded is True
    assert stream.degradations == 1
    assert stream.value(Fact("T", (0, 3)), TROPICAL) == 5.0
    assert stream.values(TROPICAL)[Fact("T", (0, 2))] == 5.0
    # The next write re-attaches and maintains from the reweighted state.
    stream.set_weight(Fact("E", (1, 2)), 2.0)
    assert stream.degraded is False
    assert stream.degradations == 1
    assert stream.value(Fact("T", (0, 3)), TROPICAL) == 7.0
    assert stream.values(TROPICAL) == {
        fact: value
        for fact, value in session.solve(TROPICAL).values.items()
        if value != TROPICAL.zero
    }


def test_caller_errors_are_not_degrade_triggers(monkeypatch):
    session = Session(TC, fresh())
    stream = session.stream()
    crash(monkeypatch, "_reground", 1)
    # IDB writes are rejected up front, degraded or not...
    with pytest.raises(DatalogError):
        stream.insert(Fact("T", (0, 3)))
    assert stream.degradations == 0
    stream.insert(Fact("E", (3, 4)))  # now degraded
    with pytest.raises(DatalogError):
        stream.insert(Fact("T", (0, 4)))
    # ...and retracting an absent fact is a KeyError either way.
    with pytest.raises(KeyError):
        stream.retract(Fact("E", (7, 8)))
    assert stream.degradations == 1


def test_nan_weights_are_caller_errors():
    database = fresh()
    session = Session(TC, database)
    stream = session.stream(TROPICAL)
    before = database_fingerprint(database)
    with pytest.raises(ValueError):
        stream.insert(Fact("E", (2, 3)), weight=float("nan"))
    with pytest.raises(ValueError):
        stream.insert(Fact("E", (3, 4)), weight=float("nan"))
    with pytest.raises(ValueError):
        stream.set_weight(Fact("E", (0, 1)), float("nan"))
    assert stream.degradations == 0
    assert stream.degraded is False
    assert Fact("E", (3, 4)) not in database
    assert database_fingerprint(database) == before


def test_a_fact_with_extra_arguments_is_a_caller_error(monkeypatch):
    """``insert(Fact, 5.0)`` reads like a weighted insert but passes the
    weight positionally: the stream and the bare maintainer both raise
    TypeError before anything is written, attached or degraded."""
    database = fresh()
    session = Session(TC, database)
    stream = session.stream(TROPICAL)
    before = database_fingerprint(database)

    def assert_rejected():
        writes = [stream.insert, stream.retract]
        if stream.fixpoint is not None:
            writes += [stream.fixpoint.insert, stream.fixpoint.retract]
        for write in writes:
            with pytest.raises(TypeError):
                write(Fact("E", (3, 4)), 5.0)
            with pytest.raises(TypeError):
                write(Fact("E", (2, 3)), 5.0)
        assert database_fingerprint(database) == before
        assert Fact("E", (3, 4)) not in database

    assert_rejected()
    assert stream.degradations == 0
    assert stream.value(Fact("T", (0, 3)), TROPICAL) == 0.0
    crash(monkeypatch, "_reground", 1)
    stream.insert(Fact("E", (5, 6)))  # degrades
    assert stream.degraded is True
    before = database_fingerprint(database)
    assert_rejected()
    assert stream.degradations == 1


def test_served_circuits_survive_a_degrade(monkeypatch):
    session = Session(TC, fresh())
    stream = session.stream()
    served = stream.serve(Fact("T", (0, 3)), BOOLEAN)
    assert served.value() is True
    crash(monkeypatch, "_reground", 1)
    stream.insert(Fact("E", (3, 4)))  # degrades
    assert stream.degraded is True
    # The served evaluator was rebuilt from post-write state and keeps
    # answering; a subsequent retract flows into it too.
    assert served.value() is True
    stream.retract(Fact("E", (2, 3)))
    assert served.value() is False


def test_a_write_that_crashes_the_maintainer_reaches_served_circuits(monkeypatch):
    """The stream observes the database ahead of its maintainer, so a
    write whose maintenance crashes has already reached the served
    circuits when the stream degrades."""
    session = Session(TC, fresh())
    stream = session.stream()
    served = stream.serve(Fact("T", (0, 4)), BOOLEAN)
    assert served.value() is False
    crash(monkeypatch, "_reground", 1)
    stream.insert(Fact("E", (3, 4)))  # degrades
    assert stream.degraded is True
    assert served.value() is True
    assert served.rebuilds == 1
