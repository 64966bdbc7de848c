"""Unit tests for the fault taxonomy."""

import pytest

from repro.cluster.comm import SimComm
from repro.cluster.machine import paper_machine
from repro.faults.events import (
    FaultClass,
    FaultEvent,
    FaultKind,
    FaultScope,
    blast_radius,
)


class TestFaultClass:
    def test_soft_hard_split_matches_paper(self):
        softs = {c for c in FaultClass if c.is_soft}
        hards = {c for c in FaultClass if c.is_hard}
        assert softs == {FaultClass.DCE, FaultClass.DUE, FaultClass.SDC}
        assert hards == {FaultClass.SWO, FaultClass.SNF, FaultClass.LNF}

    def test_kinds_are_exclusive(self):
        for c in FaultClass:
            assert c.is_soft != c.is_hard

    def test_dce_needs_no_recovery(self):
        assert not FaultClass.DCE.needs_recovery
        for c in FaultClass:
            if c is not FaultClass.DCE:
                assert c.needs_recovery

    def test_labels(self):
        assert FaultClass.SNF.label == "SNF"
        assert FaultClass.SDC.kind is FaultKind.SOFT


class TestFaultEvent:
    def test_construction(self):
        e = FaultEvent(iteration=10, victim_rank=3)
        assert e.iteration == 10
        assert e.victim_rank == 3
        assert e.fault_class is FaultClass.SNF

    def test_rejects_negative_iteration(self):
        with pytest.raises(ValueError):
            FaultEvent(iteration=-1, victim_rank=0)

    def test_rejects_negative_victim(self):
        with pytest.raises(ValueError):
            FaultEvent(iteration=0, victim_rank=-2)

    def test_is_hashable_and_frozen(self):
        e = FaultEvent(1, 1)
        assert hash(e) == hash(FaultEvent(1, 1))
        with pytest.raises(AttributeError):
            e.iteration = 5


#: 30 ranks on the paper's 24-core nodes: ranks 0-23 on node 0, 24-29
#: on node 1.
NRANKS = 30
NODE0, NODE1 = list(range(24)), list(range(24, NRANKS))


class TestBlastRadius:
    """The one scope -> victim expansion the solver damages and the
    analytic engine prices."""

    @pytest.fixture(scope="class")
    def binding(self):
        return SimComm(paper_machine(), NRANKS).binding

    @pytest.mark.parametrize(
        "scope, victims, expected",
        [
            pytest.param(FaultScope.PROCESS, (5,), [5], id="process-k1"),
            pytest.param(FaultScope.PROCESS, (26, 5), [26, 5], id="process-k2"),
            pytest.param(FaultScope.NODE, (5,), NODE0, id="node-k1"),
            pytest.param(FaultScope.NODE, (26, 5), NODE1 + NODE0, id="node-k2"),
            pytest.param(FaultScope.NODE, (5, 7), NODE0, id="node-k2-one-node"),
            pytest.param(FaultScope.SYSTEM, (5,), list(range(NRANKS)), id="system-k1"),
            pytest.param(
                FaultScope.SYSTEM, (26, 5), list(range(NRANKS)), id="system-k2"
            ),
        ],
    )
    def test_expansion(self, binding, scope, victims, expected):
        event = FaultEvent.multi(7, victims, scope=scope)
        assert blast_radius(event, binding) == expected

    @pytest.mark.parametrize("scope", list(FaultScope), ids=lambda s: s.value)
    def test_out_of_range_victim_raises(self, binding, scope):
        event = FaultEvent.multi(7, (3, NRANKS), scope=scope)
        with pytest.raises(ValueError, match=r"victim rank 30 outside \[0, 30\)"):
            blast_radius(event, binding)
