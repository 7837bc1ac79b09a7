"""The governor decision audit log.

Every frequency decision the control loop takes is worth being able to
replay: what the predictor saw (features), what it believed (predicted
time, margin), what it had to work with (effective budget), and what it
chose (the OPP).  :class:`DecisionRecord` is the schema; the log itself
is the ordered list a :class:`~repro.telemetry.events.Telemetry`
accumulates, one entry per job.

Instrumented governors (prediction, adaptive) report rich records via
the :meth:`~repro.governors.base.Governor.audit_decision` hook; for
everything else the executor appends a bare record so the log covers
*every* decision, not just the predictive ones.

Schema version 2 adds full decision *provenance* so a record is
self-explanatory and offline-replayable (see
``repro.telemetry.provenance`` and ``docs/decision_provenance.md``):

- :class:`DecisionAttribution` — the model-space feature vector, the
  active anchor-model coefficients (:class:`AnchorSnapshot`), and
  per-feature contributions that sum exactly to the predicted time;
- :class:`LadderRung` — the per-OPP accept/reject verdicts the
  frequency selection walked over;
- ``beta_generation`` — how many online-recalibration updates the
  anchor models had absorbed when the decision was taken.

Parsing is forward/backward tolerant: :func:`DecisionRecord.from_dict`
accepts version-1 records (provenance fields default to empty), ignores
unknown keys, and :func:`read_decisions_jsonl` reports — rather than
raises on — malformed lines and newer-than-known schema versions.  It
is not lenient about types: every field present must have the type the
writer gives it (a count an int, a real a JSON number or, where the
writer stores NaN, ``null``, a flag a boolean, a label a string), so a
hand-edited ``"opp_mhz": "1200"`` or ``"fits": "false"`` makes its line
unreadable instead of being coerced.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping

from repro.checks import check_number

__all__ = [
    "SCHEMA_VERSION",
    "AnchorSnapshot",
    "DecisionAttribution",
    "LadderRung",
    "DecisionRecord",
    "read_decisions_jsonl",
]

#: Current on-disk schema of :meth:`DecisionRecord.as_dict`.  Version 1
#: (PR 2) had no ``version`` key; version 2 added the provenance fields.
SCHEMA_VERSION = 2


def _clean(value: float | None) -> float | None:
    """NaN -> None for JSON friendliness (None round-trips to NaN)."""
    if value is None:
        return None
    return None if math.isnan(value) else value


def _count(
    owner: str, payload: Mapping[str, Any], key: str, default: int
) -> int:
    return check_number(owner, key, payload.get(key, default), count=True)


def _real(owner: str, payload: Mapping[str, Any], key: str) -> float:
    return float(check_number(owner, key, payload.get(key, 0.0)))


def _real_or_nan(owner: str, payload: Mapping[str, Any], key: str) -> float:
    """A real the writer stores as ``null`` when it is NaN."""
    value = payload.get(key)
    if value is None:
        return math.nan
    return float(check_number(owner, key, value))


def _reals(
    owner: str, payload: Mapping[str, Any], key: str
) -> tuple[float, ...]:
    values = payload.get(key, [])
    if not isinstance(values, list):
        raise ValueError(f"{owner}: {key} must be a list, got {values!r}")
    return tuple(float(check_number(owner, key, v)) for v in values)


def _string(
    owner: str, payload: Mapping[str, Any], key: str, default: str
) -> str:
    value = payload.get(key, default)
    if not isinstance(value, str):
        raise ValueError(f"{owner}: {key} must be a string, got {value!r}")
    return value


def _flag(owner: str, payload: Mapping[str, Any], key: str) -> bool:
    value = payload.get(key, False)
    if not isinstance(value, bool):
        raise ValueError(f"{owner}: {key} must be a boolean, got {value!r}")
    return value


def _object(owner: str, value: Any, key: str) -> Mapping[str, Any]:
    if not isinstance(value, dict):
        raise ValueError(f"{owner}: {key} must be an object, got {value!r}")
    return value


@dataclass(frozen=True)
class AnchorSnapshot:
    """The exact coefficients one anchor model used for one prediction.

    Three kinds, matching the three live prediction code paths (the
    split matters because replay must reproduce the *same floating
    point expression*, not just the same algebra):

    - ``"offline"`` — a trained asymmetric-Lasso anchor
      (:class:`~repro.models.asymmetric.AsymmetricLassoModel`):
      ``coef`` and ``intercept`` are in model space.
    - ``"online-pre"`` — an :class:`~repro.online.recalibrate.OnlineAnchorModel`
      that has not absorbed an update yet: same payload, but the live
      path evaluates a 1-D dot product rather than a (1, n) matmul.
    - ``"online"`` — RLS-recalibrated: ``coef`` is the design-space
      ``theta`` (feature weights then intercept), ``scales`` the frozen
      per-feature normalization.
    """

    kind: str
    coef: tuple[float, ...]
    intercept: float = 0.0
    scales: tuple[float, ...] | None = None

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "coef": list(self.coef),
            "intercept": self.intercept,
            "scales": None if self.scales is None else list(self.scales),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AnchorSnapshot":
        owner = "anchor"
        return cls(
            kind=_string(owner, payload, "kind", "offline"),
            coef=_reals(owner, payload, "coef"),
            intercept=_real(owner, payload, "intercept"),
            scales=(
                None
                if payload.get("scales") is None
                else _reals(owner, payload, "scales")
            ),
        )


@dataclass(frozen=True)
class LadderRung:
    """One OPP's verdict in the frequency-selection walk.

    Attributes:
        freq_mhz: The rung's frequency.
        predicted_time_s: Margined predicted execution time at this
            frequency under the fitted DVFS model.
        margin_s: Slack against the effective budget
            (``effective_budget_s - predicted_time_s``); negative means
            the rung would miss.
        fits: Whether the selection rule accepts this rung (frequency at
            or above the ideal frequency for the budget).
        chosen: Whether this rung is the one the governor picked.
    """

    freq_mhz: float
    predicted_time_s: float
    margin_s: float
    fits: bool
    chosen: bool

    def as_dict(self) -> dict:
        return {
            "freq_mhz": self.freq_mhz,
            "predicted_time_s": self.predicted_time_s,
            "margin_s": _clean(self.margin_s),
            "fits": self.fits,
            "chosen": self.chosen,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "LadderRung":
        owner = "ladder rung"
        payload = _object(owner, payload, "rung")
        return cls(
            freq_mhz=_real(owner, payload, "freq_mhz"),
            predicted_time_s=_real(owner, payload, "predicted_time_s"),
            margin_s=_real_or_nan(owner, payload, "margin_s"),
            fits=_flag(owner, payload, "fits"),
            chosen=_flag(owner, payload, "chosen"),
        )


@dataclass(frozen=True)
class DecisionAttribution:
    """Why the prediction came out the way it did.

    ``contributions_s[i]`` is feature ``columns[i]``'s share of the
    margined predicted time at the chosen frequency; the identity

    ``predicted_time_s == sum(contributions_s) + intercept_s + adjustment_s``

    holds *exactly* (``adjustment_s`` absorbs the DVFS-model clamp
    branches and accumulated float rounding, and is tiny whenever no
    clamp fired).

    Attributes:
        columns: Model-space feature labels (post one-hot encoding and
            polynomial expansion) — ``a*b`` marks an interaction term.
        x: The model-space feature vector the anchors consumed.
        contributions_s: Per-feature share of the predicted time.
        intercept_s: The anchors' intercept share of the predicted time.
        adjustment_s: Exact remainder (clamps + rounding).
        tmem_s: Fitted memory-bound term of ``t(f) = T_mem + N_dep/f``.
        ndep_cycles: Fitted frequency-dependent cycle count.
        t_fmax_raw_s: Raw (unmargined, unclamped) f_max anchor output.
        t_fmin_raw_s: Raw f_min anchor output.
        anchor_fmax: Coefficients behind ``t_fmax_raw_s``.
        anchor_fmin: Coefficients behind ``t_fmin_raw_s``.
        switch_estimate_s: Conservative DVFS-transition estimate charged
            against the budget.
        budget_s: The job's full deadline budget.
        deadline_s: Absolute deadline on the simulated clock.
    """

    columns: tuple[str, ...]
    x: tuple[float, ...]
    contributions_s: tuple[float, ...]
    intercept_s: float
    adjustment_s: float
    tmem_s: float
    ndep_cycles: float
    t_fmax_raw_s: float
    t_fmin_raw_s: float
    anchor_fmax: AnchorSnapshot
    anchor_fmin: AnchorSnapshot
    switch_estimate_s: float = float("nan")
    budget_s: float = float("nan")
    deadline_s: float = float("nan")

    def as_dict(self) -> dict:
        return {
            "columns": list(self.columns),
            "x": list(self.x),
            "contributions_s": list(self.contributions_s),
            "intercept_s": self.intercept_s,
            "adjustment_s": self.adjustment_s,
            "tmem_s": self.tmem_s,
            "ndep_cycles": self.ndep_cycles,
            "t_fmax_raw_s": self.t_fmax_raw_s,
            "t_fmin_raw_s": self.t_fmin_raw_s,
            "anchor_fmax": self.anchor_fmax.as_dict(),
            "anchor_fmin": self.anchor_fmin.as_dict(),
            "switch_estimate_s": _clean(self.switch_estimate_s),
            "budget_s": _clean(self.budget_s),
            "deadline_s": _clean(self.deadline_s),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DecisionAttribution":
        owner = "attribution"
        payload = _object(owner, payload, "attribution")
        columns = payload.get("columns", [])
        if not isinstance(columns, list) or not all(
            isinstance(c, str) for c in columns
        ):
            raise ValueError(
                f"{owner}: columns must be a list of strings, got {columns!r}"
            )
        return cls(
            columns=tuple(columns),
            x=_reals(owner, payload, "x"),
            contributions_s=_reals(owner, payload, "contributions_s"),
            intercept_s=_real(owner, payload, "intercept_s"),
            adjustment_s=_real(owner, payload, "adjustment_s"),
            tmem_s=_real(owner, payload, "tmem_s"),
            ndep_cycles=_real(owner, payload, "ndep_cycles"),
            t_fmax_raw_s=_real(owner, payload, "t_fmax_raw_s"),
            t_fmin_raw_s=_real(owner, payload, "t_fmin_raw_s"),
            anchor_fmax=AnchorSnapshot.from_dict(
                _object(owner, payload.get("anchor_fmax", {}), "anchor_fmax")
            ),
            anchor_fmin=AnchorSnapshot.from_dict(
                _object(owner, payload.get("anchor_fmin", {}), "anchor_fmin")
            ),
            switch_estimate_s=_real_or_nan(
                owner, payload, "switch_estimate_s"
            ),
            budget_s=_real_or_nan(owner, payload, "budget_s"),
            deadline_s=_real_or_nan(owner, payload, "deadline_s"),
        )


@dataclass(frozen=True)
class DecisionRecord:
    """One governor decision with the inputs that produced it.

    Attributes:
        job_index: Which job the decision was for.
        t_s: Simulated time the decision was taken at.
        governor: Name of the deciding governor.
        opp_mhz: Chosen frequency in MHz; None when the governor had no
            opinion (utilization-driven policies between timer fires).
        predicted_time_s: Predicted execution time at the chosen level
            (NaN for non-predictive policies).
        effective_budget_s: Budget after slice time and the conservative
            switch estimate were subtracted (NaN when not applicable).
        margin: Safety margin in force when the prediction was made.
        mode: Decision path for mode machines (``predict``/``fallback``);
            empty for single-mode governors.
        features: Slice feature counters the prediction consumed
            (site label -> value); empty for non-predictive policies.
        beta_generation: Online-recalibration update count of the anchor
            models at decision time (0 = offline coefficients; -1 = not
            a model-driven decision).
        energy_j: Cumulative board energy at decision time (joules), so
            an audit log doubles as an energy trajectory — deltas
            between consecutive records bound each job's spend.  NaN on
            records from before this field existed.
        attribution: Full provenance payload, or None for bare records.
        ladder: Per-OPP accept/reject verdicts, empty for bare records.
    """

    job_index: int
    t_s: float
    governor: str
    opp_mhz: float | None
    predicted_time_s: float = float("nan")
    effective_budget_s: float = float("nan")
    margin: float = float("nan")
    mode: str = ""
    features: Mapping[str, float] = field(default_factory=dict)
    beta_generation: int = -1
    energy_j: float = float("nan")
    attribution: DecisionAttribution | None = None
    ladder: tuple[LadderRung, ...] = ()

    def summary_dict(self) -> dict:
        """JSON-safe scalar summary (no attribution/ladder payloads).

        This is what gets mirrored onto the trace as an instant event —
        compact enough to embed per job without bloating the Chrome
        trace.  The full record, provenance included, goes to the
        ``*.decisions.jsonl`` audit log via :meth:`as_dict`.
        """
        return {
            "version": SCHEMA_VERSION,
            "job_index": self.job_index,
            "t_s": self.t_s,
            "governor": self.governor,
            "opp_mhz": self.opp_mhz,
            "predicted_time_s": _clean(self.predicted_time_s),
            "effective_budget_s": _clean(self.effective_budget_s),
            "margin": _clean(self.margin),
            "mode": self.mode,
            "features": dict(self.features),
            "beta_generation": self.beta_generation,
            "energy_j": _clean(self.energy_j),
            "attributed": self.attribution is not None,
        }

    def as_dict(self) -> dict:
        """JSON-safe dict (NaN becomes None, features copied)."""
        payload = self.summary_dict()
        del payload["attributed"]
        payload["attribution"] = (
            None if self.attribution is None else self.attribution.as_dict()
        )
        payload["ladder"] = [rung.as_dict() for rung in self.ladder]
        return payload

    @classmethod
    def bare(
        cls,
        job_index: int,
        t_s: float,
        governor: str,
        opp_mhz: float | None,
        predicted_time_s: float,
        energy_j: float,
    ) -> "DecisionRecord":
        """The record ``cls(...)`` builds from these fields, the rest at
        their defaults.

        The executor builds one per job for every governor that does not
        audit itself, so this fills the instance dict in one pass instead
        of the frozen ``__init__``'s one ``object.__setattr__`` per field.
        """
        record = object.__new__(cls)
        state = record.__dict__
        # Every key first, in field order, then the given values.
        state.update(_RECORD_DEFAULTS)
        state.update(
            job_index=job_index,
            t_s=t_s,
            governor=governor,
            opp_mhz=opp_mhz,
            predicted_time_s=predicted_time_s,
            features={},
            energy_j=energy_j,
        )
        return record

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DecisionRecord":
        """Parse a record dict from any known schema version.

        Version-1 records (no ``version`` key) load with provenance
        fields at their defaults; unknown keys are ignored so records
        written by a *newer* minor revision still parse.  Every version
        writes ``job_index``, so an object without one is not a decision
        record.  A missing ``job_index`` or a field of the wrong type is
        a ``ValueError`` naming it.
        """
        owner = "decision record"
        payload = _object(owner, payload, "record")
        if "job_index" not in payload:
            raise ValueError(f"{owner}: no 'job_index' field")
        features = _object(owner, payload.get("features", {}), "features")
        attribution = payload.get("attribution")
        ladder = payload.get("ladder", [])
        if not isinstance(ladder, list):
            raise ValueError(f"{owner}: ladder must be a list, got {ladder!r}")
        return cls(
            job_index=_count(owner, payload, "job_index", -1),
            t_s=_real(owner, payload, "t_s"),
            governor=_string(owner, payload, "governor", ""),
            opp_mhz=(
                None
                if payload.get("opp_mhz") is None
                else _real(owner, payload, "opp_mhz")
            ),
            predicted_time_s=_real_or_nan(owner, payload, "predicted_time_s"),
            effective_budget_s=_real_or_nan(
                owner, payload, "effective_budget_s"
            ),
            margin=_real_or_nan(owner, payload, "margin"),
            mode=_string(owner, payload, "mode", ""),
            features={
                key: float(check_number(owner, f"features[{key!r}]", value))
                for key, value in features.items()
            },
            beta_generation=_count(owner, payload, "beta_generation", -1),
            energy_j=_real_or_nan(owner, payload, "energy_j"),
            attribution=(
                None
                if attribution is None
                else DecisionAttribution.from_dict(attribution)
            ),
            ladder=tuple(LadderRung.from_dict(rung) for rung in ladder),
        )


#: The fields :meth:`DecisionRecord.bare` always sets.
_BARE_FIELDS = frozenset(
    {
        "job_index",
        "t_s",
        "governor",
        "opp_mhz",
        "predicted_time_s",
        "features",
        "energy_j",
    }
)


def _record_defaults(cls: type) -> dict[str, Any]:
    """A dataclass's fields in order, each at its plain default object.

    The fields in :data:`_BARE_FIELDS` map to None: ``bare`` overwrites
    them.  Any other field without a plain default (a required one, or
    one with a ``default_factory``) raises, so ``bare`` can never store
    ``dataclasses.MISSING`` in a record.
    """
    defaults: dict[str, Any] = {}
    for f in fields(cls):
        if f.name in _BARE_FIELDS:
            defaults[f.name] = None
        elif f.default is MISSING:
            raise TypeError(
                f"{cls.__name__}.{f.name} has no plain default; "
                "DecisionRecord.bare cannot fill it"
            )
        else:
            defaults[f.name] = f.default
    return defaults


_RECORD_DEFAULTS = _record_defaults(DecisionRecord)


def read_decisions_jsonl(
    path: str | Path, strict: bool = False
) -> tuple[list[DecisionRecord], list[str]]:
    """Load a ``*.decisions.jsonl`` audit log, tolerantly.

    Returns ``(records, warnings)``.  Missing file, malformed lines and
    unknown future schema versions become warnings, never exceptions —
    report tooling must degrade gracefully on old or partial traces.
    With ``strict`` a malformed line is a ``ValueError`` naming the file
    and the line instead: replay must verify every recorded decision.
    """
    path = Path(path)
    records: list[DecisionRecord] = []
    warnings: list[str] = []
    if not path.exists():
        warnings.append(f"no audit log at {path.name} (older trace?)")
        return records, warnings
    newer = 0
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            payload = _object("decision record", json.loads(line), "record")
            version = _count("decision record", payload, "version", 1)
            if version > SCHEMA_VERSION:
                newer += 1
            records.append(DecisionRecord.from_dict(payload))
        except (ValueError, TypeError, AttributeError) as error:
            message = f"{path.name}:{lineno}: unreadable record ({error})"
            if strict:
                raise ValueError(message) from error
            warnings.append(message)
    if newer:
        warnings.append(
            f"{path.name}: {newer} record(s) use a schema newer than "
            f"v{SCHEMA_VERSION}; unknown fields were ignored"
        )
    return records, warnings
