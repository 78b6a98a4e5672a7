"""Watchdogs and degrade-to-recompute for differential maintenance (§12).

Two layers under test.  :class:`MaintenancePolicy` arms the
*maintainer* with wall-clock/round budgets and a fault-injection tap;
tripping either raises :class:`MaintenanceBudgetExceeded` (or the
injected error) out of the write.  :class:`repro.api.StreamSession`
is the *streaming* wrapper that must never surface those: it detaches
the broken maintainer, keeps answering exactly (via full recompute),
reports the write as applied -- the database mutation lands before
maintainer notification, so it is durable -- and re-attaches a fresh
maintainer on the next clean write.
"""

import pytest

from repro.api import MaintenancePolicy, Session
from repro.datalog import (
    Database,
    DatalogError,
    Fact,
    MaintainedFixpoint,
    transitive_closure,
)
from repro.datalog.incremental import MaintenanceBudgetExceeded
from repro.semirings import BOOLEAN, COUNTING
from repro.testing import FaultInjector, InjectedFault, MAINTAINER_CRASH

TC = transitive_closure()
EDGES = [(0, 1), (1, 2), (2, 3)]


def fresh(edges=EDGES):
    return Database.from_edges(edges)


# -- MaintainedFixpoint watchdogs ------------------------------------------


def test_propagate_round_budget_trips():
    policy = MaintenancePolicy(max_propagate_rounds=0)
    fixpoint = MaintainedFixpoint(TC, fresh(), semirings=(BOOLEAN,), policy=policy)
    with pytest.raises(MaintenanceBudgetExceeded) as err:
        fixpoint.insert(Fact("E", (3, 4)))
    assert err.value.site == "propagate.round"


def test_propagate_wall_clock_budget_trips():
    policy = MaintenancePolicy(max_propagate_seconds=0.0)
    fixpoint = MaintainedFixpoint(TC, fresh(), semirings=(BOOLEAN,), policy=policy)
    with pytest.raises(MaintenanceBudgetExceeded) as err:
        fixpoint.insert(Fact("E", (3, 4)))
    assert err.value.site in ("propagate.round", "reground.round")


def test_refresh_wall_clock_budget_trips():
    # Initial tracking goes through _refresh, whose post-kernel tick
    # catches a blown budget before the state serves anything.
    policy = MaintenancePolicy(max_refresh_seconds=0.0)
    with pytest.raises(MaintenanceBudgetExceeded) as err:
        MaintainedFixpoint(TC, fresh(), semirings=(COUNTING,), policy=policy)
    assert err.value.site == "refresh"


def test_fault_hook_crash_propagates_from_the_write():
    injector = FaultInjector(seed=5, rates={MAINTAINER_CRASH: 1.0})
    policy = MaintenancePolicy(fault_hook=injector.maintenance_hook())
    fixpoint = MaintainedFixpoint(TC, fresh(), policy=policy)
    with pytest.raises(InjectedFault):
        fixpoint.insert(Fact("E", (3, 4)))
    assert injector.fired[MAINTAINER_CRASH] >= 1


def test_budgets_off_by_default():
    # The default policy must add no behavior: a plain maintainer and
    # a budgeted-with-None maintainer agree on a nontrivial stream.
    fixpoint = MaintainedFixpoint(TC, fresh(), semirings=(BOOLEAN,), policy=MaintenancePolicy())
    fixpoint.insert(Fact("E", (3, 4)))
    fixpoint.retract(Fact("E", (0, 1)))
    assert fixpoint.value(Fact("T", (1, 4)), BOOLEAN) is True
    assert fixpoint.value(Fact("T", (0, 2)), BOOLEAN) is False


# -- StreamSession degrade-to-recompute ------------------------------------


def crash_times(n):
    """A fault hook that raises on the first *n* ticks, then heals."""
    remaining = {"n": n}

    def hook(site):
        if remaining["n"] > 0:
            remaining["n"] -= 1
            raise InjectedFault(MAINTAINER_CRASH)

    return hook


def expected_closure(session):
    return {
        fact for fact, value in session.solve(BOOLEAN).values.items() if value
    }


def test_stream_degrades_and_keeps_answering_exactly():
    session = Session(TC, fresh())
    stream = session.stream(policy=MaintenancePolicy(fault_hook=crash_times(1)))
    # The first write crashes the maintainer mid-maintenance; the
    # stream degrades instead of surfacing the fault...
    assert stream.insert(Fact("E", (3, 4))) is True
    assert stream.degraded is True
    assert stream.degradations == 1
    assert "InjectedFault" in stream.last_degrade_reason
    # ...and the write is durable: the database took it before the
    # maintainer was notified, and reads (now full recomputes) see it.
    assert stream.value(Fact("T", (0, 4))) is True
    assert stream.values(BOOLEAN) == {f: True for f in expected_closure(session)}


def test_degraded_stream_reattaches_on_next_clean_write():
    session = Session(TC, fresh())
    stream = session.stream(policy=MaintenancePolicy(fault_hook=crash_times(1)))
    stream.insert(Fact("E", (3, 4)))
    assert stream.degraded is True
    # The hook healed: the next write rebuilds a fresh maintainer from
    # current database state and maintenance resumes differentially.
    assert stream.insert(Fact("E", (4, 5))) is True
    assert stream.degraded is False
    assert stream.degradations == 1
    assert stream.fixpoint is not None
    assert stream.value(Fact("T", (0, 5))) is True


def test_stream_stays_degraded_while_faults_persist():
    session = Session(TC, fresh())
    stream = session.stream(BOOLEAN, policy=MaintenancePolicy(fault_hook=crash_times(1000)))
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


def test_budget_trip_degrades_instead_of_raising():
    session = Session(TC, fresh())
    stream = session.stream(BOOLEAN, policy=MaintenancePolicy(max_propagate_rounds=0))
    assert stream.insert(Fact("E", (3, 4))) is True
    assert stream.degraded is True
    assert "MaintenanceBudgetExceeded" in stream.last_degrade_reason
    assert stream.value(Fact("T", (0, 4))) is True


def test_caller_errors_are_not_degrade_triggers():
    session = Session(TC, fresh())
    stream = session.stream(policy=MaintenancePolicy(fault_hook=crash_times(1)))
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


def test_served_circuits_survive_a_degrade():
    session = Session(TC, fresh())
    stream = session.stream(policy=MaintenancePolicy(fault_hook=crash_times(1)))
    served = stream.serve(Fact("T", (0, 3)), BOOLEAN)
    assert served.value() is True
    stream.insert(Fact("E", (3, 4)))  # degrades
    assert stream.degraded is True
    # The served evaluator was rebuilt from post-write state and keeps
    # answering; a subsequent degraded-path retract flows into it too.
    assert served.value() is True
    stream.retract(Fact("E", (2, 3)))
    assert served.value() is False
