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
from repro.programs.analysis import SliceCertificate
from repro.programs.instrument import FeatureSite, InstrumentedProgram
from repro.programs.serialize import program_from_dict, program_to_dict
from repro.programs.slicer import PredictionSlice

__all__ = [
    "controller_fingerprint",
    "save_controller",
    "load_controller",
    "save_adaptive_state",
    "load_adaptive_state",
]

_FORMAT_VERSION = 1
_ADAPTIVE_FORMAT_VERSION = 1


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


def _opp_from_dict(data: dict[str, Any]) -> OperatingPoint:
    if data["t"] == "cluster":
        return ClusterOperatingPoint(
            index=data["index"],
            freq_hz=data["freq_hz"],
            voltage_v=data["voltage_v"],
            cluster=data["cluster"],
            real_freq_hz=data["real_freq_hz"],
            c_eff_farads=data["c_eff_farads"],
            i_leak_amps=data["i_leak_amps"],
        )
    return OperatingPoint(
        index=data["index"], freq_hz=data["freq_hz"], voltage_v=data["voltage_v"]
    )


def _model_to_dict(model: AsymmetricLassoModel) -> dict[str, Any]:
    assert model.coef_ is not None
    return {
        "coef": model.coef_.tolist(),
        "intercept": model.intercept_,
        "alpha": model.alpha,
        "gamma": model.gamma,
    }


def _model_from_dict(data: dict[str, Any]) -> AsymmetricLassoModel:
    return AsymmetricLassoModel.from_coefficients(
        data["coef"], data["intercept"], alpha=data["alpha"], gamma=data["gamma"]
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


def save_adaptive_state(governor, path: str | Path) -> None:
    """Write an adaptive governor's learned state to a JSON file.

    This is the run-time counterpart of :func:`save_controller`: the
    offline artifacts are the distribution format, while this captures
    what the feedback loop has learned since deployment — recalibrated
    coefficients, covariances, the adaptive margin, and the drift
    detector/monitor state — so a service restart resumes adaptation
    instead of restarting it from the offline fit.

    Args:
        governor: An object exposing ``state_dict()`` (an
            :class:`~repro.governors.adaptive.AdaptiveGovernor`).
        path: Destination file.
    """
    payload = {
        "format_version": _ADAPTIVE_FORMAT_VERSION,
        "state": governor.state_dict(),
    }
    Path(path).write_text(json.dumps(payload))


def load_adaptive_state(governor, path: str | Path) -> None:
    """Restore a governor's learned state from :func:`save_adaptive_state`.

    The governor must be built from the *same* trained controller (same
    slice and feature vocabulary); state from a different controller
    would silently mis-map coefficients, so pair the two files.
    """
    payload = json.loads(Path(path).read_text())
    version = payload.get("format_version")
    if version != _ADAPTIVE_FORMAT_VERSION:
        raise ValueError(
            f"unsupported adaptive-state format version {version!r} "
            f"(this library reads version {_ADAPTIVE_FORMAT_VERSION})"
        )
    governor.load_state_dict(payload["state"])


def load_controller(path: str | Path) -> TrainedController:
    """Rebuild a :class:`TrainedController` from :func:`save_controller`."""
    payload = json.loads(Path(path).read_text())
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported controller format version {version!r} "
            f"(this library reads version {_FORMAT_VERSION})"
        )
    unknown = sorted(
        set(payload["config"]) - {f.name for f in fields(PipelineConfig)}
    )
    if unknown:
        raise ValueError(
            f"unknown pipeline config key(s): {', '.join(unknown)}"
        )
    config = PipelineConfig(**payload["config"])

    sites = tuple(
        FeatureSite(s["site"], s["kind"]) for s in payload["instrumented"]["sites"]
    )
    instrumented = InstrumentedProgram(
        program=program_from_dict(payload["instrumented"]["program"]),
        sites=sites,
    )
    columns = [
        FeatureColumn(
            name=c["name"], site=c["site"], kind=c["kind"], address=c["address"]
        )
        for c in payload["encoder_columns"]
    ]
    encoder = FeatureEncoder.from_columns(sites, columns)

    expansion = None
    if payload["model_degree"] > 1:
        expansion = PolynomialExpansion(payload["model_degree"]).fit(
            encoder.n_columns
        )
    predictor = ExecutionTimePredictor(
        encoder=encoder,
        model_fmax=_model_from_dict(payload["model_fmax"]),
        model_fmin=_model_from_dict(payload["model_fmin"]),
        margin=payload["margin"],
        expansion=expansion,
    )

    slice_ = PredictionSlice(
        program=program_from_dict(payload["slice"]["program"]),
        needed_sites=frozenset(payload["slice"]["needed_sites"]),
        relevant_vars=frozenset(payload["slice"]["relevant_vars"]),
    )

    points = [_opp_from_dict(p) for p in payload["opps"]["points"]]
    opps = OppTable(
        points,
        require_monotone_voltage=not payload["opps"]["heterogeneous"],
    )
    times = {
        tuple(int(i) for i in key.split(",")): value
        for key, value in payload["switch_table"].items()
    }
    switch_table = SwitchTimeTable(opps, times)

    trace = (
        ProfileTrace.from_json(payload["trace"])
        if payload["trace"] is not None
        else ProfileTrace([])
    )
    certificate_data = payload.get("certificate")
    certificate = (
        SliceCertificate.from_dict(certificate_data)
        if certificate_data is not None
        else None
    )
    return TrainedController(
        app_name=payload["app_name"],
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
