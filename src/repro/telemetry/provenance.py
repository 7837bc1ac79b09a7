"""Decision provenance: attribution, deterministic replay, decision diffing.

The audit log (``repro.telemetry.audit``) records *what* the governor
chose; this module makes every record answer *why* — and proves it can,
by re-deriving the decision offline.  Three pillars:

- **Attribution** (:func:`build_provenance`): capture the model-space
  feature vector, the exact anchor-model coefficients in force
  (:class:`~repro.telemetry.audit.AnchorSnapshot`), per-feature
  contributions that sum exactly to the predicted time, the fitted
  ``T_mem``/``N_dep`` DVFS terms, and the full frequency ladder with
  per-OPP accept/reject verdicts.
- **Deterministic replay** (:func:`replay_records`): reconstruct every
  frequency decision from the recorded trace plus a persisted
  controller's OPP table — no workload re-execution — and verify
  bit-exact agreement with what the governor chose live.  Counterfactual
  knobs (margin, budget, substituted coefficients) re-score a whole
  trace under a hypothetical controller.
- **Decision diffing** (:func:`diff_decisions`): align two runs' audit
  logs by job id, classify each divergence (feature drift vs. beta
  change vs. margin/budget change vs. switch-time change), and rank a
  divergence report.

Bit-exactness is the design constraint everything else bends around:
:func:`predict_anchor` evaluates each anchor through the *same function*
its live prediction path calls (the offline Lasso's ``(1, n)`` matmul,
the online model's warm-start 1-D dot, and the RLS design-space dot),
because the three are algebraically equal but not always last-bit equal
under BLAS.

Besides the audit schema (plus numpy and the stdlib), this module
imports only those prediction functions, from ``repro.models`` and
``repro.online``, neither of which imports ``repro.telemetry``;
governors hand their predictor and DVFS model in as arguments, keeping
``repro.telemetry`` import-cycle-free.  The one exception is
:func:`beta_from_controller_payload`, which reads a saved controller
through ``repro.pipeline.persist``, imported when it is called.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.models.asymmetric import lasso_time
from repro.online.recalibrate import recalibrated_time, warm_start_time
from repro.telemetry.audit import (
    AnchorSnapshot,
    DecisionAttribution,
    DecisionRecord,
    LadderRung,
    read_decisions_jsonl,
)

__all__ = [
    "anchor_snapshot",
    "predict_anchor",
    "model_space_columns",
    "build_provenance",
    "predictor_fingerprint",
    "ReplayedDecision",
    "ReplayResult",
    "replay_records",
    "beta_from_controller_payload",
    "DIVERGENCE_KINDS",
    "Divergence",
    "DecisionDiff",
    "diff_decisions",
    "decision_logs",
    "load_run_decisions",
    "render_explanation",
    "render_replay",
    "render_diff",
    "result_json",
]

_LOG_SUFFIX = ".decisions.jsonl"


# -- attribution ---------------------------------------------------------------


def anchor_snapshot(model: Any) -> AnchorSnapshot:
    """Freeze the coefficients an anchor model would predict with *now*.

    Duck-typed: an :class:`~repro.online.recalibrate.OnlineAnchorModel`
    exposes ``snapshot()`` (kind ``online-pre``/``online``); anything
    with ``coef_``/``intercept_`` (the offline asymmetric Lasso) becomes
    an ``offline`` snapshot.
    """
    snapshot = getattr(model, "snapshot", None)
    if callable(snapshot):
        return AnchorSnapshot.from_dict(snapshot())
    # Offline coefficients are immutable after fit, so the snapshot is
    # cached on the model (decisions are per-job; rebuilding the tuple
    # every time showed up in the attribution perf guard).
    cached = getattr(model, "_provenance_snapshot", None)
    if cached is not None:
        return cached
    built = AnchorSnapshot(
        kind="offline",
        coef=tuple(float(c) for c in model.coef_),
        intercept=float(model.intercept_),
    )
    try:
        model._provenance_snapshot = built
    except AttributeError:
        pass  # frozen/slotted models just rebuild each call
    return built


def predict_anchor(snapshot: AnchorSnapshot, x: Sequence[float]) -> float:
    """Raw anchor prediction, bit-identical to the live code path.

    Each ``kind`` calls the function its live model predicts with, so
    the floating-point expression is the same one, not a copy.
    """
    x = np.asarray(x, dtype=float)
    coef = np.asarray(snapshot.coef, dtype=float)
    if snapshot.kind == "online":
        scales = np.asarray(snapshot.scales, dtype=float)
        return recalibrated_time(x, scales, coef)
    if snapshot.kind == "online-pre":
        return warm_start_time(x, coef, snapshot.intercept)
    return lasso_time(x, coef, snapshot.intercept)


def _anchor_terms(
    snapshot: AnchorSnapshot, x: np.ndarray
) -> tuple[np.ndarray, float]:
    """Per-feature raw-seconds terms and the intercept of one anchor.

    The terms sum (with the intercept) to the anchor's raw prediction up
    to float rounding; the attribution's ``adjustment_s`` absorbs the
    difference exactly.
    """
    if snapshot.kind == "online":
        theta = np.asarray(snapshot.coef, dtype=float)
        scales = np.asarray(snapshot.scales, dtype=float)
        return (x / scales) * theta[:-1], float(theta[-1])
    coef = np.asarray(snapshot.coef, dtype=float)
    return x * coef, float(snapshot.intercept)


def model_space_columns(predictor: Any) -> tuple[str, ...]:
    """Labels of the (possibly polynomial-expanded) feature vector.

    Interaction terms from the degree-2 expansion are labelled
    ``a*b`` (and squares ``a*a``), matching
    :meth:`~repro.models.poly.PolynomialExpansion.terms` order.
    """
    cached = getattr(predictor, "_provenance_columns", None)
    if cached is not None:
        return cached
    names = list(predictor.encoder.column_names)
    expansion = getattr(predictor, "expansion", None)
    if expansion is None:
        columns = tuple(names)
    else:
        columns = tuple(
            "*".join(names[i] for i in term) for term in expansion.terms
        )
    try:
        predictor._provenance_columns = columns
    except AttributeError:
        pass
    return columns


def build_provenance(
    *,
    predictor: Any,
    dvfs: Any,
    raw_features: Any,
    prediction: Any,
    margin: float,
    effective_budget_s: float,
    switch_estimate_s: float,
    opp: Any,
    budget_s: float,
    deadline_s: float,
) -> tuple[DecisionAttribution, tuple[LadderRung, ...], int]:
    """Assemble the full provenance payload for one frequency decision.

    Called by the predictive/adaptive governors at decision time (only
    when telemetry is enabled).  Returns ``(attribution, ladder,
    beta_generation)`` ready for
    :meth:`~repro.governors.base.Governor.audit_decision`.

    The contribution of model-space feature ``i`` to the margined
    predicted time at the chosen frequency ``f`` is

        ``c_i = (w_max(f) * term_max_i + w_min(f) * term_min_i) * (1 + margin)``

    where the convex weights ``w_max``/``w_min`` come from writing the
    DVFS interpolation ``t(f) = T_mem + N_dep / f`` as a combination of
    the two anchor predictions (branch-aware: the component clamps of
    :meth:`~repro.models.dvfs.DvfsModel.components` collapse the weights
    to the fmax anchor).  ``adjustment_s`` closes the identity exactly.
    """
    x = np.asarray(predictor.model_space(raw_features), dtype=float)
    snap_fmax = anchor_snapshot(predictor.model_fmax)
    snap_fmin = anchor_snapshot(predictor.model_fmin)
    t_fmax_raw = predict_anchor(snap_fmax, x)
    t_fmin_raw = predict_anchor(snap_fmin, x)

    components = dvfs.components(prediction.t_fmin_s, prediction.t_fmax_s)
    fmin_hz = dvfs.opps.fmin.freq_hz
    fmax_hz = dvfs.opps.fmax.freq_hz
    span = fmax_hz - fmin_hz
    f_hz = opp.freq_hz
    # Re-derive which clamp branch components() took to pick the weights.
    ndep_unclamped = (
        fmin_hz * fmax_hz * (prediction.t_fmin_s - prediction.t_fmax_s) / span
    )
    tmem_unclamped = (
        fmax_hz * prediction.t_fmax_s - fmin_hz * prediction.t_fmin_s
    ) / span
    if ndep_unclamped < 0.0:
        w_max, w_min = 1.0, 0.0
    elif tmem_unclamped < 0.0:
        w_max, w_min = fmax_hz / f_hz, 0.0
    else:
        w_max = fmax_hz * (f_hz - fmin_hz) / (f_hz * span)
        w_min = fmin_hz * (fmax_hz - f_hz) / (f_hz * span)

    factor = 1.0 + margin
    terms_max, intercept_max = _anchor_terms(snap_fmax, x)
    terms_min, intercept_min = _anchor_terms(snap_fmin, x)
    # Python floats: the same float64 operations as on numpy scalars.
    contributions = [
        w_max * factor * tmax + w_min * factor * tmin
        for tmax, tmin in zip(terms_max.tolist(), terms_min.tolist())
    ]
    intercept_s = float(
        w_max * factor * intercept_max + w_min * factor * intercept_min
    )
    predicted_time_s = components.time_at(f_hz)
    adjustment_s = predicted_time_s - sum(contributions) - intercept_s

    ideal = dvfs.freq_for_budget(components, effective_budget_s)
    meetable = not math.isinf(ideal)
    ladder = []
    for point in dvfs.opps:
        time_s = components.time_at(point.freq_hz)
        # Positional: (freq_mhz, predicted_time_s, margin_s, fits, chosen);
        # keywords cost ~30% more per rung, 13 rungs per decision.
        ladder.append(
            LadderRung(
                point.freq_mhz,
                time_s,
                effective_budget_s - time_s,
                meetable and point.freq_hz >= ideal,
                point.index == opp.index,
            )
        )
    ladder = tuple(ladder)

    attribution = DecisionAttribution(
        columns=model_space_columns(predictor),
        x=tuple(x.tolist()),
        contributions_s=tuple(contributions),
        intercept_s=intercept_s,
        adjustment_s=adjustment_s,
        tmem_s=components.tmem_s,
        ndep_cycles=components.ndep_cycles,
        t_fmax_raw_s=t_fmax_raw,
        t_fmin_raw_s=t_fmin_raw,
        anchor_fmax=snap_fmax,
        anchor_fmin=snap_fmin,
        switch_estimate_s=switch_estimate_s,
        budget_s=budget_s,
        deadline_s=deadline_s,
    )
    generation = int(getattr(predictor, "generation", 0))
    return attribution, ladder, generation


def predictor_fingerprint(predictor: Any) -> str:
    """Short stable hash of the coefficients a predictor decides with.

    Two runs with the same fingerprint share the exact β (and margin
    when it is a plain float); the controller persistence layer embeds
    it so a replayed trace can be matched to its controller file.
    """
    digest = hashlib.sha256()
    for model in (predictor.model_fmax, predictor.model_fmin):
        snapshot = anchor_snapshot(model)
        digest.update(snapshot.kind.encode())
        digest.update(repr(snapshot.coef).encode())
        digest.update(repr(snapshot.intercept).encode())
        digest.update(repr(snapshot.scales).encode())
    margin = getattr(predictor, "margin", None)
    margin = getattr(margin, "value", margin)
    if isinstance(margin, (int, float)):
        digest.update(repr(float(margin)).encode())
    return digest.hexdigest()[:16]


# -- deterministic replay ------------------------------------------------------


@dataclass(frozen=True)
class ReplayedDecision:
    """One decision re-derived from its record.

    ``matched`` compares *bit-exactly* (frequency and predicted time);
    ``changed`` marks a different frequency, which is the interesting
    signal under counterfactual knobs.
    """

    job_index: int
    recorded_opp_mhz: float
    replayed_opp_mhz: float
    recorded_predicted_s: float
    replayed_predicted_s: float

    @property
    def matched(self) -> bool:
        return (
            self.replayed_opp_mhz == self.recorded_opp_mhz
            and self.replayed_predicted_s == self.recorded_predicted_s
        )

    @property
    def changed(self) -> bool:
        return self.replayed_opp_mhz != self.recorded_opp_mhz

    def as_dict(self) -> dict:
        return {
            "job_index": self.job_index,
            "recorded_opp_mhz": self.recorded_opp_mhz,
            "replayed_opp_mhz": self.replayed_opp_mhz,
            "recorded_predicted_s": self.recorded_predicted_s,
            "replayed_predicted_s": self.replayed_predicted_s,
            "matched": self.matched,
        }


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying one run's audit log."""

    run: str
    total: int
    decisions: tuple[ReplayedDecision, ...]
    skipped: tuple[tuple[int, str], ...]
    counterfactual: bool

    @property
    def replayed(self) -> int:
        return len(self.decisions)

    @property
    def matched(self) -> int:
        return sum(1 for d in self.decisions if d.matched)

    @property
    def mismatches(self) -> tuple[ReplayedDecision, ...]:
        return tuple(d for d in self.decisions if not d.matched)

    @property
    def changed(self) -> tuple[ReplayedDecision, ...]:
        return tuple(d for d in self.decisions if d.changed)

    def as_dict(self) -> dict:
        return {
            "run": self.run,
            "total": self.total,
            "replayed": self.replayed,
            "matched": self.matched,
            "counterfactual": self.counterfactual,
            "skipped": [
                {"job_index": job, "reason": reason}
                for job, reason in self.skipped
            ],
            "mismatches": [d.as_dict() for d in self.mismatches],
            "changed": [d.as_dict() for d in self.changed],
        }


def beta_from_controller_payload(
    payload: Mapping[str, Any],
) -> dict[str, AnchorSnapshot]:
    """Offline anchor snapshots from a ``save_controller`` JSON payload.

    The ``--beta FILE`` counterfactual: replay a trace as if these
    coefficients (not the recorded ones) had been deciding.  The payload
    is read as :func:`~repro.pipeline.persist.load_controller` reads a
    file, so a malformed model raises a ``ValueError`` naming it.
    """
    from repro.pipeline.persist import controller_from_payload

    predictor = controller_from_payload(payload).predictor
    return {
        "model_fmax": anchor_snapshot(predictor.model_fmax),
        "model_fmin": anchor_snapshot(predictor.model_fmin),
    }


def replay_records(
    records: Iterable[DecisionRecord],
    dvfs: Any,
    *,
    run: str = "",
    margin: float | None = None,
    budget: float | None = None,
    beta: Mapping[str, AnchorSnapshot] | None = None,
) -> ReplayResult:
    """Re-derive every attributed decision from its record alone.

    Needs only the controller's :class:`~repro.models.dvfs.DvfsModel`
    (for the OPP table) — features, coefficients, margin, and effective
    budget all come from the records, so no workload re-execution
    happens.  With no knobs set, agreement must be bit-exact; setting
    ``margin``/``budget``/``beta`` re-scores the trace under a
    hypothetical controller instead (``counterfactual=True`` in the
    result, and mismatches become *changes*, not errors).
    """
    decisions: list[ReplayedDecision] = []
    skipped: list[tuple[int, str]] = []
    total = 0
    for record in records:
        total += 1
        attribution = record.attribution
        if attribution is None or record.opp_mhz is None:
            reason = record.mode or "bare record (no attribution payload)"
            skipped.append((record.job_index, reason))
            continue
        snap_fmax = attribution.anchor_fmax
        snap_fmin = attribution.anchor_fmin
        if beta is not None:
            snap_fmax = beta["model_fmax"]
            snap_fmin = beta["model_fmin"]
        x = np.asarray(attribution.x, dtype=float)
        m = record.margin if margin is None else margin
        factor = 1.0 + m
        t_fmax_s = max(predict_anchor(snap_fmax, x), 0.0) * factor
        t_fmin_s = max(predict_anchor(snap_fmin, x), 0.0) * factor
        effective_budget_s = record.effective_budget_s
        if budget is not None:
            if math.isnan(attribution.budget_s):
                skipped.append(
                    (record.job_index, "no recorded budget to shift")
                )
                continue
            # Shift the deadline: slice time and switch estimate stay as
            # the live run paid them.
            effective_budget_s = record.effective_budget_s + (
                budget - attribution.budget_s
            )
        opp = dvfs.choose_opp(t_fmin_s, t_fmax_s, effective_budget_s)
        predicted_s = dvfs.components(t_fmin_s, t_fmax_s).time_at(opp.freq_hz)
        decisions.append(
            ReplayedDecision(
                job_index=record.job_index,
                recorded_opp_mhz=record.opp_mhz,
                replayed_opp_mhz=opp.freq_mhz,
                recorded_predicted_s=record.predicted_time_s,
                replayed_predicted_s=predicted_s,
            )
        )
    return ReplayResult(
        run=run,
        total=total,
        decisions=tuple(decisions),
        skipped=tuple(skipped),
        counterfactual=(
            margin is not None or budget is not None or beta is not None
        ),
    )


# -- decision diffing ----------------------------------------------------------

#: Divergence classes in precedence order (first matching cause wins).
DIVERGENCE_KINDS = (
    "governor-change",
    "mode-change",
    "feature-drift",
    "beta-change",
    "margin-change",
    "switch-time",
    "budget-change",
    "unexplained",
)


@dataclass(frozen=True)
class Divergence:
    """One aligned job whose decisions differ between two runs."""

    job_index: int
    kind: str
    detail: str
    opp_a_mhz: float | None
    opp_b_mhz: float | None
    predicted_a_s: float
    predicted_b_s: float
    mode_a: str
    mode_b: str

    @property
    def opp_changed(self) -> bool:
        return self.opp_a_mhz != self.opp_b_mhz

    @property
    def predicted_delta_s(self) -> float:
        delta = self.predicted_b_s - self.predicted_a_s
        return 0.0 if math.isnan(delta) else delta

    def as_dict(self) -> dict:
        return {
            "job_index": self.job_index,
            "kind": self.kind,
            "detail": self.detail,
            "opp_a_mhz": self.opp_a_mhz,
            "opp_b_mhz": self.opp_b_mhz,
            "predicted_a_s": _json_float(self.predicted_a_s),
            "predicted_b_s": _json_float(self.predicted_b_s),
            "mode_a": self.mode_a,
            "mode_b": self.mode_b,
        }


@dataclass(frozen=True)
class DecisionDiff:
    """Aligned comparison of two runs' decision streams."""

    run: str
    aligned: int
    only_a: tuple[int, ...]
    only_b: tuple[int, ...]
    divergences: tuple[Divergence, ...]

    @property
    def kinds(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for divergence in self.divergences:
            counts[divergence.kind] = counts.get(divergence.kind, 0) + 1
        return counts

    def as_dict(self) -> dict:
        return {
            "run": self.run,
            "aligned": self.aligned,
            "only_a": list(self.only_a),
            "only_b": list(self.only_b),
            "kinds": self.kinds,
            "divergences": [d.as_dict() for d in self.divergences],
        }


def _json_float(value: float) -> float | None:
    return None if math.isnan(value) else value


def _floats_differ(a: float, b: float) -> bool:
    if math.isnan(a) and math.isnan(b):
        return False
    return a != b


def _top_feature_shift(
    a: DecisionAttribution, b: DecisionAttribution
) -> str:
    deltas = [
        (abs(xb - xa), name, xa, xb)
        for name, xa, xb in zip(a.columns, a.x, b.x)
        if xa != xb
    ]
    if not deltas:
        return "feature vectors differ"
    _, name, xa, xb = max(deltas)
    return f"{name}: {xa:g} -> {xb:g}"


def _classify(a: DecisionRecord, b: DecisionRecord) -> tuple[str, str]:
    if a.governor != b.governor:
        return "governor-change", f"{a.governor} -> {b.governor}"
    if a.mode != b.mode:
        return "mode-change", f"{a.mode or 'default'} -> {b.mode or 'default'}"
    att_a, att_b = a.attribution, b.attribution
    if att_a is None or att_b is None:
        return "unexplained", "no attribution payload on one side"
    if att_a.x != att_b.x or att_a.columns != att_b.columns:
        return "feature-drift", _top_feature_shift(att_a, att_b)
    if (
        att_a.anchor_fmax != att_b.anchor_fmax
        or att_a.anchor_fmin != att_b.anchor_fmin
        or a.beta_generation != b.beta_generation
    ):
        if a.beta_generation != b.beta_generation:
            detail = f"generation {a.beta_generation} -> {b.beta_generation}"
        else:
            # Same update count, different coefficients: the online loop
            # learned from different residuals in the two runs.
            detail = (
                "recalibrated coefficients differ at generation "
                f"{a.beta_generation}"
            )
        return "beta-change", detail
    if _floats_differ(a.margin, b.margin):
        return "margin-change", f"margin {a.margin:g} -> {b.margin:g}"
    if _floats_differ(att_a.switch_estimate_s, att_b.switch_estimate_s):
        return (
            "switch-time",
            f"switch estimate {att_a.switch_estimate_s:g}s -> "
            f"{att_b.switch_estimate_s:g}s",
        )
    if _floats_differ(a.effective_budget_s, b.effective_budget_s):
        return (
            "budget-change",
            f"effective budget {a.effective_budget_s:g}s -> "
            f"{b.effective_budget_s:g}s",
        )
    return "unexplained", "identical recorded inputs"


def diff_decisions(
    records_a: Iterable[DecisionRecord],
    records_b: Iterable[DecisionRecord],
    *,
    run: str = "",
) -> DecisionDiff:
    """Align two decision streams by job id and classify divergences.

    A job diverges when the chosen frequency or the decision mode
    differs.  Each divergence gets the first matching cause in
    :data:`DIVERGENCE_KINDS` precedence; the report ranks frequency
    changes first, then by |Δ predicted time|.
    """
    by_job_a = {r.job_index: r for r in records_a}
    by_job_b = {r.job_index: r for r in records_b}
    shared = sorted(by_job_a.keys() & by_job_b.keys())
    divergences = []
    for job in shared:
        a, b = by_job_a[job], by_job_b[job]
        if a.opp_mhz == b.opp_mhz and a.mode == b.mode:
            continue
        kind, detail = _classify(a, b)
        divergences.append(
            Divergence(
                job_index=job,
                kind=kind,
                detail=detail,
                opp_a_mhz=a.opp_mhz,
                opp_b_mhz=b.opp_mhz,
                predicted_a_s=a.predicted_time_s,
                predicted_b_s=b.predicted_time_s,
                mode_a=a.mode,
                mode_b=b.mode,
            )
        )
    divergences.sort(
        key=lambda d: (not d.opp_changed, -abs(d.predicted_delta_s), d.job_index)
    )
    return DecisionDiff(
        run=run,
        aligned=len(shared),
        only_a=tuple(sorted(by_job_a.keys() - by_job_b.keys())),
        only_b=tuple(sorted(by_job_b.keys() - by_job_a.keys())),
        divergences=tuple(divergences),
    )


# -- trace loading -------------------------------------------------------------


def decision_logs(path: str | Path) -> dict[str, Path]:
    """Map run name -> audit-log file for a trace directory (or one file).

    Accepts either a ``*.decisions.jsonl`` file or a trace directory as
    written by :class:`~repro.telemetry.exporters.TraceSession`.
    """
    path = Path(path)
    if path.is_file():
        name = path.name
        if name.endswith(_LOG_SUFFIX):
            name = name[: -len(_LOG_SUFFIX)]
        else:
            name = path.stem
        return {name: path}
    if not path.is_dir():
        raise FileNotFoundError(
            f"{path} is neither a trace directory nor a decisions file"
        )
    return {
        f.name[: -len(_LOG_SUFFIX)]: f
        for f in sorted(path.glob(f"*{_LOG_SUFFIX}"))
    }


def load_run_decisions(
    path: str | Path, run: str | None = None, strict: bool = False
) -> tuple[dict[str, list[DecisionRecord]], list[str]]:
    """All runs' decision records under ``path`` (only ``run``'s, when
    given), with parse warnings; ``strict`` as in
    :func:`~repro.telemetry.audit.read_decisions_jsonl`."""
    logs = decision_logs(path)
    if run is not None:
        if run not in logs:
            raise FileNotFoundError(
                f"run {run!r} not found under {path} "
                f"(available: {', '.join(sorted(logs)) or 'none'})"
            )
        logs = {run: logs[run]}
    runs: dict[str, list[DecisionRecord]] = {}
    warnings: list[str] = []
    if not logs:
        warnings.append(f"no {_LOG_SUFFIX} files under {path} (older trace?)")
    for name, log in logs.items():
        records, log_warnings = read_decisions_jsonl(log, strict=strict)
        runs[name] = records
        warnings.extend(log_warnings)
    return runs, warnings


# -- renderers -----------------------------------------------------------------


def _fmt_s(value: float) -> str:
    return "n/a" if math.isnan(value) else f"{value * 1e3:.3f} ms"


def render_explanation(record: DecisionRecord, top: int = 12) -> str:
    """Human-readable "why this frequency" block for one decision."""
    opp = "none" if record.opp_mhz is None else f"{record.opp_mhz:.0f} MHz"
    lines = [
        f"job {record.job_index} @ t={record.t_s:.4f}s  "
        f"governor={record.governor}  mode={record.mode or 'default'}",
        f"  chose {opp}   predicted {_fmt_s(record.predicted_time_s)}   "
        f"effective budget {_fmt_s(record.effective_budget_s)}",
    ]
    attribution = record.attribution
    if attribution is None:
        lines.append(
            "  (no attribution payload — bare or pre-provenance record)"
        )
        return "\n".join(lines)
    lines.append(
        f"  margin {record.margin:g}   beta generation "
        f"{record.beta_generation}   switch estimate "
        f"{_fmt_s(attribution.switch_estimate_s)}"
    )
    lines.append(
        f"  budget math: budget {_fmt_s(attribution.budget_s)} -> effective "
        f"{_fmt_s(record.effective_budget_s)} (slice time + switch "
        "estimate + reserved bound already subtracted)"
    )
    lines.append(
        f"  DVFS fit: T_mem {_fmt_s(attribution.tmem_s)}   N_dep "
        f"{attribution.ndep_cycles:.3e} cycles   anchors raw "
        f"t_fmax {_fmt_s(attribution.t_fmax_raw_s)} "
        f"({attribution.anchor_fmax.kind}) / t_fmin "
        f"{_fmt_s(attribution.t_fmin_raw_s)} ({attribution.anchor_fmin.kind})"
    )
    lines.append("  prediction decomposition (x_i * beta_i, margined):")
    ranked = sorted(
        zip(attribution.columns, attribution.x, attribution.contributions_s),
        key=lambda item: -abs(item[2]),
    )
    shown = 0
    for name, x, contribution in ranked:
        if contribution == 0.0 and x == 0.0:
            continue
        lines.append(
            f"    {name:<28} x={x:>10.4g}  contribution={_fmt_s(contribution)}"
        )
        shown += 1
        if shown >= top:
            break
    hidden = sum(1 for _, x, c in ranked if not (c == 0.0 and x == 0.0)) - shown
    if hidden > 0:
        lines.append(f"    ... {hidden} smaller terms elided")
    lines.append(
        f"    intercept={_fmt_s(attribution.intercept_s)}  "
        f"adjustment={attribution.adjustment_s:+.3e}s  "
        f"(sum == predicted time)"
    )
    if record.ladder:
        lines.append("  frequency ladder (effective budget "
                     f"{_fmt_s(record.effective_budget_s)}):")
        for rung in record.ladder:
            verdict = "fits" if rung.fits else "reject"
            marker = "  <== chosen" if rung.chosen else ""
            lines.append(
                f"    {rung.freq_mhz:>7.0f} MHz  predicted "
                f"{_fmt_s(rung.predicted_time_s)}  slack "
                f"{_fmt_s(rung.margin_s)}  {verdict}{marker}"
            )
    return "\n".join(lines)


def render_replay(result: ReplayResult) -> str:
    """Text report of one run's replay."""
    header = f"replay: {result.run or 'trace'}"
    lines = [header, "-" * len(header)]
    lines.append(
        f"decisions: {result.total} recorded, {result.replayed} replayed, "
        f"{len(result.skipped)} skipped"
    )
    if result.skipped:
        reasons: dict[str, int] = {}
        for _, reason in result.skipped:
            reasons[reason] = reasons.get(reason, 0) + 1
        for reason, count in sorted(reasons.items()):
            lines.append(f"  skipped [{reason}]: {count}")
    if result.counterfactual:
        lines.append(
            f"counterfactual re-score: {len(result.changed)} of "
            f"{result.replayed} decisions change frequency"
        )
        for decision in result.changed[:20]:
            lines.append(
                f"  job {decision.job_index}: "
                f"{decision.recorded_opp_mhz:.0f} MHz -> "
                f"{decision.replayed_opp_mhz:.0f} MHz "
                f"(predicted {_fmt_s(decision.recorded_predicted_s)} -> "
                f"{_fmt_s(decision.replayed_predicted_s)})"
            )
        if len(result.changed) > 20:
            lines.append(f"  ... {len(result.changed) - 20} more")
    else:
        verdict = (
            "bit-exact"
            if result.matched == result.replayed
            else f"MISMATCH ({result.replayed - result.matched} decisions)"
        )
        lines.append(
            f"agreement: {result.matched}/{result.replayed} {verdict}"
        )
        for decision in result.mismatches[:20]:
            lines.append(
                f"  job {decision.job_index}: recorded "
                f"{decision.recorded_opp_mhz:.0f} MHz / "
                f"{decision.recorded_predicted_s!r}s, replayed "
                f"{decision.replayed_opp_mhz:.0f} MHz / "
                f"{decision.replayed_predicted_s!r}s"
            )
    return "\n".join(lines)


def render_diff(diff: DecisionDiff, limit: int = 25) -> str:
    """Ranked divergence report for two runs' decision streams."""
    header = f"decision diff: {diff.run or 'trace'}"
    lines = [header, "-" * len(header)]
    lines.append(
        f"aligned jobs: {diff.aligned}   divergent: {len(diff.divergences)}"
    )
    if diff.only_a or diff.only_b:
        lines.append(
            f"unaligned jobs: {len(diff.only_a)} only in A, "
            f"{len(diff.only_b)} only in B"
        )
    if not diff.divergences:
        lines.append("decision streams are identical")
        return "\n".join(lines)
    for kind in DIVERGENCE_KINDS:
        count = diff.kinds.get(kind)
        if count:
            lines.append(f"  {kind}: {count}")
    lines.append("top divergences (frequency changes first):")
    for divergence in diff.divergences[:limit]:
        opp_a = (
            "none"
            if divergence.opp_a_mhz is None
            else f"{divergence.opp_a_mhz:.0f}"
        )
        opp_b = (
            "none"
            if divergence.opp_b_mhz is None
            else f"{divergence.opp_b_mhz:.0f}"
        )
        lines.append(
            f"  job {divergence.job_index:>5}  {opp_a} -> {opp_b} MHz  "
            f"[{divergence.kind}] {divergence.detail}"
        )
    if len(diff.divergences) > limit:
        lines.append(f"  ... {len(diff.divergences) - limit} more")
    return "\n".join(lines)


def result_json(payload: Any) -> str:
    """Strict-JSON dump used by the CLI ``--json`` switches."""
    return json.dumps(payload, indent=2, allow_nan=False, sort_keys=True)
