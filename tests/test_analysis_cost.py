"""Tests for latency accounting, table rendering, and the cost model."""

import pytest

from repro.analysis.metrics import measure_backend_latency, measure_latency
from repro.analysis.tables import Table, format_table
from repro.api import get_spec
from repro.api.backends import BackendRequest, get_backend_spec
from repro.cost.model import CloudCostModel
from repro.errors import ConfigurationError, SpecificationError
from repro.registers.abd import AbdProtocol
from repro.registers.base import RegisterSystem
from repro.sim.simulator import OperationStatus
from repro.sim.tracing import TraceKind
from repro.workloads.generator import WorkloadGenerator, apply_plan


class TestMetrics:
    def test_abd_latency_report(self):
        system = RegisterSystem(AbdProtocol(), t=1, n_readers=2)
        plans = WorkloadGenerator(seed=1, spacing=60).plan(10)
        report = measure_latency(system, plans, scenario="fault-free")
        assert report.worst_write == 1
        assert report.worst_read == 2
        assert report.incomplete == 0
        assert report.mean_read == 2.0

    def test_wire_cross_check_active(self):
        system = RegisterSystem(AbdProtocol(), t=1, n_readers=2)
        plans = WorkloadGenerator(seed=2, spacing=60).plan(6)
        report = measure_latency(system, plans, verify_against_wire=True)
        assert report.worst_read == 2  # would have raised on mismatch

    def test_report_row_formatting(self):
        system = RegisterSystem(AbdProtocol(), t=1, n_readers=2)
        report = measure_latency(system, WorkloadGenerator(seed=3, spacing=60).plan(4),
                                 scenario="x")
        row = report.row()
        assert row["protocol"] == "abd"
        assert "/" in row["writes (worst/mean)"]

    def test_empty_report_defaults(self):
        system = RegisterSystem(AbdProtocol(), t=1, n_readers=2)
        report = measure_latency(system, [])
        assert report.worst_read == 0
        assert report.mean_write == 0.0


class CountingEntries(list):
    """A trace log that counts how many times it is iterated."""

    def __init__(self, *args):
        super().__init__(*args)
        self.passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


class TestAccountingCost:
    """Round accounting is one pass over the trace, whatever the op count.

    Timing-free: a per-operation wire lookup (the quadratic this guards
    against) would iterate the trace once per completed operation.
    """

    @pytest.mark.parametrize("engine", ["event", "batched"])
    @pytest.mark.parametrize("operations", [100, 2000])
    def test_accounting_iterates_the_trace_once(self, engine, operations):
        system = RegisterSystem(AbdProtocol(), t=1, n_readers=4, engine=engine)
        system.trace.entries = CountingEntries()
        plans = WorkloadGenerator(seed=5, n_readers=4, read_fraction=0.9).plan(operations)
        report = measure_latency(system, plans)
        assert len(report.read_rounds) + len(report.write_rounds) == operations
        assert len(system.trace.entries) > operations
        assert system.trace.entries.passes <= 1


def _tamper_with_last_round(simulator, trace, how):
    """Make the engine's and the wire's round counts disagree for one op."""
    operation = next(
        op for op in simulator.operations if op.status is OperationStatus.COMPLETE
    )
    if how == "bump-rounds":
        operation.rounds.append(operation.rounds[-1])
        return
    last = operation.rounds_used
    trace.entries[:] = [
        (time, kind, message)
        for time, kind, message in trace.entries
        if not (kind is TraceKind.SEND and message.op == operation.op_id
                and message.round_no == last)
    ]


class TestWireCrossCheck:
    """The engine cannot misreport its own round count."""

    @pytest.mark.parametrize("how", ["bump-rounds", "drop-sends"])
    def test_measure_latency_raises_on_mismatch(self, how):
        system = RegisterSystem(AbdProtocol(), t=1, n_readers=2)
        apply_plan(system, WorkloadGenerator(seed=2, spacing=60).plan(6))
        system.run()
        _tamper_with_last_round(system.simulator, system.trace, how)
        with pytest.raises(SpecificationError, match="but the wire shows"):
            measure_latency(system, [])

    @pytest.mark.parametrize("how", ["bump-rounds", "drop-sends"])
    def test_measure_backend_latency_raises_on_mismatch(self, how):
        backend = get_backend_spec("single").build(get_spec("abd"), BackendRequest(), {})
        for plan in WorkloadGenerator(seed=2, spacing=60).plan(6):
            backend.schedule(plan)
        backend.run()
        _tamper_with_last_round(backend.simulator, backend.trace, how)
        with pytest.raises(SpecificationError, match="but the wire shows"):
            measure_backend_latency(backend, [])


class TestTables:
    def test_format_alignment(self):
        text = format_table("T", ["a", "bb"], [{"a": "1", "bb": "2"}, {"a": "333"}])
        lines = text.splitlines()
        assert lines[0] == "== T =="
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_table_add_and_render(self):
        table = Table(title="x", columns=("c",))
        table.add({"c": "v"})
        assert "v" in table.render()

    def test_missing_cells_render_empty(self):
        text = format_table("T", ["a", "b"], [{"a": "1"}])
        assert text.splitlines()[-1].startswith("1")


class TestCostModel:
    def test_requests_scale_with_rounds_and_objects(self):
        model = CloudCostModel(S=4)
        assert model.operation(2).requests == 8
        assert model.operation(4).requests == 16

    def test_protocol_cost_ratio_is_rounds_ratio(self):
        """The paper's motivation: extra rounds are proportional dollars."""
        model = CloudCostModel(S=4)
        atomic_read = model.operation(4)
        token_read = model.operation(3)
        assert atomic_read.dollars / token_read.dollars == pytest.approx(4 / 3)

    def test_latency_scales_with_rtt(self):
        model = CloudCostModel(S=4, rtt_ms=50.0)
        assert model.operation(2).latency_ms == 100.0

    def test_workload_total(self):
        model = CloudCostModel(S=4, price_per_request=1e-6)
        total = model.workload(reads=10, read_rounds=4, writes=5, write_rounds=2)
        assert total == pytest.approx((10 * 16 + 5 * 8) * 1e-6)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CloudCostModel(S=0)
        with pytest.raises(ConfigurationError):
            CloudCostModel(S=1, rtt_ms=-1)
        with pytest.raises(ConfigurationError):
            CloudCostModel(S=1).operation(-1)

    def test_row_formatting(self):
        row = CloudCostModel(S=4).operation(2).row()
        assert row["rounds"] == "2"
        assert "cost ($/Mop)" in row
