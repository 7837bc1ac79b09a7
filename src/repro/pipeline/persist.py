"""Persistence of trained controllers (paper §4.2).

"For common platforms, the program developer can perform this profiling
and distribute the trained model coefficients with the program."  This
module is that distribution format: everything a
:class:`~repro.governors.predictive.PredictiveGovernor` needs at run
time — the prediction slice, encoder vocabulary, model coefficients,
margin, operating points, and the switch-time table — in one JSON file.

The profiling trace is optional (it is training data, not a run-time
artifact); the instrumented program ships so a user can re-profile on a
new platform, which §4.2 also calls for ("profiling can be done by the
user during application installation").
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, fields
from pathlib import Path
from typing import Any

from repro.checks import check_number
from repro.features.encoding import FeatureColumn, FeatureEncoder
from repro.features.trace import ProfileTrace
from repro.models.asymmetric import AsymmetricLassoModel
from repro.models.dvfs import DvfsModel
from repro.models.poly import PolynomialExpansion
from repro.models.timing import ExecutionTimePredictor
from repro.pipeline.config import PipelineConfig
from repro.pipeline.offline import TrainedController
from repro.platform.biglittle import ClusterOperatingPoint
from repro.platform.opp import OperatingPoint, OppTable
from repro.platform.switching import SwitchTimeTable
from repro.programs.analysis.certify import SliceCertificate
from repro.programs.instrument import FeatureSite, InstrumentedProgram
from repro.programs.serialize import program_from_dict, program_to_dict
from repro.programs.slicer import PredictionSlice

__all__ = [
    "controller_fingerprint",
    "controller_from_payload",
    "save_controller",
    "load_controller",
]

_FORMAT_VERSION = 1


def _opp_to_dict(point: OperatingPoint) -> dict[str, Any]:
    data: dict[str, Any] = {
        "index": point.index,
        "freq_hz": point.freq_hz,
        "voltage_v": point.voltage_v,
    }
    if isinstance(point, ClusterOperatingPoint):
        data.update(
            t="cluster",
            cluster=point.cluster,
            real_freq_hz=point.real_freq_hz,
            c_eff_farads=point.c_eff_farads,
            i_leak_amps=point.i_leak_amps,
        )
    else:
        data["t"] = "plain"
    return data


def _opp_from_dict(i: int, data: dict[str, Any]) -> OperatingPoint:
    """Point ``i`` of a saved OPP table, read by type: ``index`` an int,
    ``freq_hz`` and ``voltage_v`` finite numbers > 0, and for a cluster
    point ``cluster`` a string and ``real_freq_hz``, ``c_eff_farads`` and
    ``i_leak_amps`` finite numbers >= 0.  A bad field raises a
    ``ValueError`` naming the point and the field."""
    owner, point = "saved controller", f"'opps' point {i}"

    def number(key: str, positive: bool = False) -> float:
        value = check_number(owner, f"{point} {key}", data[key])
        if value < 0 or (positive and value == 0):
            bound = "> 0" if positive else ">= 0"
            raise ValueError(
                f"{owner}: {point} {key} must be {bound}, got {value}"
            )
        return value

    index = check_number(owner, f"{point} index", data["index"], count=True)
    freq_hz = number("freq_hz", positive=True)
    voltage_v = number("voltage_v", positive=True)
    if data["t"] != "cluster":
        return OperatingPoint(index, freq_hz, voltage_v)
    cluster = data["cluster"]
    if not isinstance(cluster, str):
        raise ValueError(
            f"{owner}: {point} cluster must be a string, got {cluster!r}"
        )
    return ClusterOperatingPoint(
        index=index,
        freq_hz=freq_hz,
        voltage_v=voltage_v,
        cluster=cluster,
        real_freq_hz=number("real_freq_hz"),
        c_eff_farads=number("c_eff_farads"),
        i_leak_amps=number("i_leak_amps"),
    )


def _config_from_dict(data: dict[str, Any]) -> PipelineConfig:
    unknown = sorted(set(data) - {f.name for f in fields(PipelineConfig)})
    if unknown:
        raise ValueError(
            f"unknown pipeline config key(s): {', '.join(unknown)}"
        )
    return PipelineConfig(**data)


def _model_to_dict(model: AsymmetricLassoModel) -> dict[str, Any]:
    assert model.coef_ is not None
    return {
        "coef": model.coef_.tolist(),
        "intercept": model.intercept_,
        "alpha": model.alpha,
        "gamma": model.gamma,
    }


def _model_from_dict(name: str, data: Any, n_coef: int) -> AsymmetricLassoModel:
    """An anchor model read by type: ``coef`` is a list of ``n_coef``
    finite JSON numbers (no bools, no strings), ``intercept`` a finite
    number, ``alpha`` > 0 and ``gamma`` >= 0.  A bad field raises a
    ``ValueError`` naming the model and the field."""
    owner = "saved controller"
    if not isinstance(data, dict):
        raise ValueError(f"{owner}: malformed {name!r} field (not an object)")
    for key in ("coef", "intercept", "alpha", "gamma"):
        if key not in data:
            raise ValueError(f"{owner}: {name!r} has no {key!r} field")
    coef = data["coef"]
    if not isinstance(coef, list) or len(coef) != n_coef:
        raise ValueError(
            f"{owner}: {name!r} coef must be a list of {n_coef} numbers"
            " (one per model column)"
        )
    for i, value in enumerate(coef):
        check_number(owner, f"{name!r} coef[{i}]", value)
    intercept = check_number(owner, f"{name!r} intercept", data["intercept"])
    alpha = check_number(owner, f"{name!r} alpha", data["alpha"])
    if alpha <= 0:
        raise ValueError(f"{owner}: {name!r} alpha must be positive, got {alpha}")
    gamma = check_number(owner, f"{name!r} gamma", data["gamma"])
    if gamma < 0:
        raise ValueError(
            f"{owner}: {name!r} gamma must be non-negative, got {gamma}"
        )
    return AsymmetricLassoModel.from_coefficients(
        coef, intercept, alpha=alpha, gamma=gamma
    )


def controller_fingerprint(controller: TrainedController) -> str:
    """Short stable hash of what the controller *decides with*.

    Covers the anchor coefficients, margin, and the OPP table — the
    inputs deterministic trace replay depends on.  Embedded in the saved
    payload so ``repro replay`` can tell whether a trace and a
    controller file belong together.
    """
    from repro.telemetry.provenance import predictor_fingerprint

    digest = hashlib.sha256()
    digest.update(predictor_fingerprint(controller.predictor).encode())
    for point in controller.dvfs.opps:
        digest.update(repr((point.index, point.freq_hz)).encode())
    return digest.hexdigest()[:16]


def save_controller(
    controller: TrainedController,
    path: str | Path,
    include_trace: bool = False,
) -> None:
    """Write a trained controller to a JSON file."""
    opps = controller.dvfs.opps
    heterogeneous = any(isinstance(p, ClusterOperatingPoint) for p in opps)
    payload: dict[str, Any] = {
        "format_version": _FORMAT_VERSION,
        "fingerprint": controller_fingerprint(controller),
        "app_name": controller.app_name,
        "config": asdict(controller.config),
        "instrumented": {
            "program": program_to_dict(controller.instrumented.program),
            "sites": [
                {"site": s.site, "kind": s.kind}
                for s in controller.instrumented.sites
            ],
        },
        "encoder_columns": [
            {
                "name": c.name,
                "site": c.site,
                "kind": c.kind,
                "address": c.address,
            }
            for c in controller.encoder.columns
        ],
        "model_fmax": _model_to_dict(controller.predictor.model_fmax),
        "model_fmin": _model_to_dict(controller.predictor.model_fmin),
        "margin": controller.predictor.margin,
        "model_degree": (
            1
            if controller.predictor.expansion is None
            else controller.predictor.expansion.degree
        ),
        "slice": {
            "program": program_to_dict(controller.slice.program),
            "needed_sites": sorted(controller.slice.needed_sites),
            "relevant_vars": sorted(controller.slice.relevant_vars),
        },
        "opps": {
            "points": [_opp_to_dict(p) for p in opps],
            "heterogeneous": heterogeneous,
        },
        "switch_table": {
            f"{a},{b}": t
            for (a, b), t in {
                (start.index, end.index): controller.switch_table.time_s(
                    start, end
                )
                for start in opps
                for end in opps
            }.items()
        },
        "certificate": (
            controller.certificate.as_dict()
            if controller.certificate is not None
            else None
        ),
        "trace": controller.trace.to_json() if include_trace else None,
    }
    Path(path).write_text(json.dumps(payload))


def load_controller(path: str | Path) -> TrainedController:
    """Rebuild a :class:`TrainedController` from :func:`save_controller`.

    A missing or malformed field raises a ``ValueError`` naming it.
    """
    return controller_from_payload(json.loads(Path(path).read_text()))


def controller_from_payload(payload: Any) -> TrainedController:
    """:func:`load_controller` on an already decoded JSON payload."""
    if not isinstance(payload, dict):
        raise ValueError("saved controller: not a JSON object")
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported controller format version {version!r} "
            f"(this library reads version {_FORMAT_VERSION})"
        )

    def field(name: str, parse=None):
        """The field ``name``, through ``parse`` if given; the ValueErrors
        that the parsers raise already name what they reject."""
        if name not in payload:
            raise ValueError(f"saved controller: no {name!r} field")
        if parse is None:
            return payload[name]
        try:
            return parse(payload[name])
        except (AttributeError, IndexError, KeyError, TypeError) as error:
            raise ValueError(
                f"saved controller: malformed {name!r} field"
                f" ({type(error).__name__}: {error})"
            ) from None

    config = field("config", _config_from_dict)
    instrumented = field(
        "instrumented",
        lambda data: InstrumentedProgram(
            program=program_from_dict(data["program"]),
            sites=tuple(
                FeatureSite(s["site"], s["kind"]) for s in data["sites"]
            ),
        ),
    )
    encoder = field(
        "encoder_columns",
        lambda columns: FeatureEncoder.from_columns(
            instrumented.sites,
            [
                FeatureColumn(
                    name=c["name"],
                    site=c["site"],
                    kind=c["kind"],
                    address=c["address"],
                )
                for c in columns
            ],
        ),
    )
    expansion = field(
        "model_degree",
        lambda degree: (
            PolynomialExpansion(degree).fit(encoder.n_columns)
            if degree > 1
            else None
        ),
    )
    n_coef = encoder.n_columns if expansion is None else expansion.n_terms
    predictor = ExecutionTimePredictor(
        encoder=encoder,
        model_fmax=field(
            "model_fmax",
            lambda data: _model_from_dict("model_fmax", data, n_coef),
        ),
        model_fmin=field(
            "model_fmin",
            lambda data: _model_from_dict("model_fmin", data, n_coef),
        ),
        margin=field(
            "margin",
            lambda value: check_number("saved controller", "'margin'", value),
        ),
        expansion=expansion,
    )
    slice_ = field(
        "slice",
        lambda data: PredictionSlice(
            program=program_from_dict(data["program"]),
            needed_sites=frozenset(data["needed_sites"]),
            relevant_vars=frozenset(data["relevant_vars"]),
        ),
    )
    opps = field(
        "opps",
        lambda data: OppTable(
            [_opp_from_dict(i, p) for i, p in enumerate(data["points"])],
            require_monotone_voltage=not data["heterogeneous"],
        ),
    )
    switch_table = field(
        "switch_table",
        lambda table: SwitchTimeTable(
            opps,
            {
                tuple(int(i) for i in key.split(",")): value
                for key, value in table.items()
            },
        ),
    )
    trace = field(
        "trace",
        lambda data: (
            ProfileTrace([]) if data is None else ProfileTrace.from_json(data)
        ),
    )
    certificate_data = payload.get("certificate")
    certificate = (
        None
        if certificate_data is None
        else field("certificate", SliceCertificate.from_dict)
    )
    return TrainedController(
        app_name=field("app_name"),
        instrumented=instrumented,
        trace=trace,
        encoder=encoder,
        predictor=predictor,
        slice=slice_,
        dvfs=DvfsModel(opps),
        switch_table=switch_table,
        config=config,
        certificate=certificate,
    )
