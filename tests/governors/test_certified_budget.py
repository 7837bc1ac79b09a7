"""The certificate's cost bound inside the predictive governor.

Three behaviours, all off by default (no certificate):

- ``slice_bound_work`` exposes a tight bound as schedulable Work;
- the bound-skip pre-flight pins fmax without running the slice when
  even the certified worst case cannot meet the deadline;
- the certified reservation keeps the unspent remainder of the bound out
  of the effective budget, so a lucky fast slice run cannot unlock
  headroom the static analysis does not guarantee.
"""

import pytest

from repro.governors.base import JobContext
from repro.governors.predictive import PredictiveGovernor
from repro.platform.board import Board
from repro.platform.opp import default_xu3_a7_table
from repro.programs.analysis.certify import ANALYSIS_PASSES, SliceCertificate
from repro.programs.analysis.diagnostics import Diagnostic
from repro.telemetry.events import Telemetry

OPPS = default_xu3_a7_table()
INPUTS = {"width": 10, "height": 10, "kind": 0}


def make_cert(instructions, mem_refs=0.0, tight=True, diagnostics=()):
    return SliceCertificate(
        program_name="toy_slice",
        passes=ANALYSIS_PASSES,
        side_effect_free=True,
        writes_globals=(),
        coverage_ok=True,
        covered_sites=(),
        cost_bound_instructions=float(instructions),
        cost_bound_mem_refs=float(mem_refs),
        cost_bound_tight=tight,
        diagnostics=tuple(diagnostics),
    )


def make_governor(trained_stack, certificate):
    _, slice_, predictor, dvfs, table = trained_stack
    return PredictiveGovernor(
        slice_, predictor, dvfs, table, certificate=certificate
    )


def make_ctx(board, budget_s=0.050):
    return JobContext(
        index=0,
        inputs=dict(INPUTS),
        task_globals={},
        budget_s=budget_s,
        deadline_s=board.now + budget_s,
        board=board,
    )


def audited_decide(governor, budget_s=0.050):
    telemetry = Telemetry()
    governor.bind_telemetry(telemetry)
    board = Board()
    decision = governor.decide(make_ctx(board, budget_s=budget_s))
    return decision, telemetry.decisions[-1], board, telemetry


def actual_slice_cycles(trained_stack):
    _, slice_, predictor, dvfs, table = trained_stack
    governor = PredictiveGovernor(slice_, predictor, dvfs, table)
    outcome = governor.analyze(make_ctx(Board()))
    return outcome.slice_work.cycles


class TestSliceBoundWork:
    def test_no_certificate_no_bound(self, trained_stack):
        governor = make_governor(trained_stack, None)
        assert governor.slice_bound_work() is None

    def test_loose_bound_is_ignored(self, trained_stack):
        governor = make_governor(trained_stack, make_cert(1e6, tight=False))
        assert governor.slice_bound_work() is None

    def test_tight_bound_converts_to_work(self, trained_stack):
        governor = make_governor(trained_stack, make_cert(1000, mem_refs=5))
        work = governor.slice_bound_work()
        assert work.cycles == pytest.approx(
            1000 * governor.interpreter.cycles_per_instruction
        )
        assert work.mem_time_s == pytest.approx(
            5 * governor.interpreter.mem_seconds_per_ref
        )


class TestCertifiedReservation:
    def test_reservation_shrinks_effective_budget(self, trained_stack):
        slice_cycles = actual_slice_cycles(trained_stack)
        _, baseline_record, _, _ = audited_decide(
            make_governor(trained_stack, None)
        )
        assert baseline_record.mode == ""
        governor = make_governor(trained_stack, make_cert(4 * slice_cycles))
        _, certified_record, board, _ = audited_decide(governor)
        assert certified_record.mode == "certified"
        # The unspent remainder of the bound stays reserved out of the
        # effective budget (board.now is exactly the charged slice time).
        bound_time = board.cpu.execution_time(
            governor.slice_bound_work(), board.current_opp
        )
        expected_reservation = bound_time - board.now
        assert expected_reservation > 0
        assert (
            baseline_record.effective_budget_s
            - certified_record.effective_budget_s
        ) == pytest.approx(expected_reservation)

    def test_exact_bound_changes_nothing(self, trained_stack):
        slice_cycles = actual_slice_cycles(trained_stack)
        _, baseline_record, _, _ = audited_decide(
            make_governor(trained_stack, None)
        )
        _, certified_record, _, _ = audited_decide(
            make_governor(trained_stack, make_cert(slice_cycles))
        )
        assert certified_record.effective_budget_s == pytest.approx(
            baseline_record.effective_budget_s
        )

    def test_bound_exceeded_counts_but_never_credits(self, trained_stack):
        slice_cycles = actual_slice_cycles(trained_stack)
        _, baseline_record, _, _ = audited_decide(
            make_governor(trained_stack, None)
        )
        governor = make_governor(trained_stack, make_cert(slice_cycles / 2))
        _, record, _, telemetry = audited_decide(governor)
        # A too-small bound must not ADD budget back (max(0, ...) clamp),
        # and the violation is counted for the drift monitors.
        assert record.effective_budget_s == pytest.approx(
            baseline_record.effective_budget_s
        )
        assert (
            telemetry.metrics.counter("certifier.bound_exceeded").value == 1
        )


class TestBoundSkip:
    def test_doomed_job_pins_fmax_without_running_slice(self, trained_stack):
        # ~0.7 s of certified work against a 50 ms budget: even fmax
        # cannot fit the slice, so it must not run at all.
        governor = make_governor(trained_stack, make_cert(1e9))
        decision, record, board, telemetry = audited_decide(governor)
        assert decision.opp == OPPS.fmax
        assert record.mode == "bound-skip"
        assert board.now == 0.0  # nothing charged: the slice never ran
        assert telemetry.metrics.counter("predict.bound_skips").value == 1

    def test_feasible_job_still_runs_slice(self, trained_stack):
        governor = make_governor(trained_stack, make_cert(1e9))
        telemetry = Telemetry()
        governor.bind_telemetry(telemetry)
        board = Board()
        governor.decide(make_ctx(board, budget_s=5.0))
        assert board.now > 0.0
        assert telemetry.metrics.counter("predict.bound_skips").value == 0

    def test_charge_overheads_false_disables_preflight(self, trained_stack):
        governor = make_governor(trained_stack, make_cert(1e9))
        board = Board()
        ctx = make_ctx(board, budget_s=0.001)
        ctx.charge_overheads = False
        decision = governor.decide(ctx)
        assert decision is not None
        assert board.now == 0.0


class TestCertifierTelemetry:
    def test_bind_exports_certificate_metrics(self, trained_stack):
        cert = make_cert(
            1234,
            diagnostics=(
                Diagnostic(
                    pass_name="effects",
                    severity="warning",
                    site="g",
                    message="writes g",
                ),
            ),
        )
        governor = make_governor(trained_stack, cert)
        telemetry = Telemetry()
        governor.bind_telemetry(telemetry)
        metrics = telemetry.metrics
        assert metrics.counter("certifier.diagnostics[warning]").value == 1
        assert metrics.gauge("certifier.certified").value == 1.0
        assert metrics.gauge("certifier.cost_bound_tight").value == 1.0
        assert (
            metrics.gauge("certifier.cost_bound_instructions").value == 1234
        )

    def test_no_certificate_exports_nothing(self, trained_stack):
        governor = make_governor(trained_stack, None)
        telemetry = Telemetry()
        governor.bind_telemetry(telemetry)
        assert "certifier.certified" not in telemetry.metrics.as_dict()["gauges"]
