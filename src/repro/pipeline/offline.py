"""The offline controller-generation flow (paper Fig. 13).

Given an annotated application:

1. **Instrument** its control-flow sites with feature counters.
2. **Profile** the instrumented task over scripted sample inputs,
   recording feature values and execution times at both anchor
   frequencies.
3. **Train** the asymmetric-Lasso execution-time models.
4. **Slice** the instrumented program down to the features the trained
   models actually use (zero-coefficient features are dropped).
5. **Certify** the slice: the static-analysis passes prove the §3.2
   side-effect rule, model-feature coverage, the absence of dropped
   definitions, and a worst-case slice cost bound.  In ``certify="error"``
   mode (the default) an uncertified slice never reaches the governor.
6. **Microbenchmark** DVFS switch times for the conservative switch
   estimate.

The result bundles everything a :class:`~repro.governors.predictive.
PredictiveGovernor` needs at run time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from repro.features.encoding import FeatureEncoder
from repro.features.profiler import Profiler
from repro.features.trace import ProfileTrace
from repro.governors.predictive import PredictiveGovernor
from repro.models.dvfs import DvfsModel
from repro.models.timing import ExecutionTimePredictor
from repro.pipeline.config import PipelineConfig
from repro.platform.cpu import SimulatedCpu
from repro.platform.jitter import LogNormalJitter, NoJitter
from repro.platform.opp import OppTable, default_xu3_a7_table
from repro.platform.switching import SwitchLatencyModel, SwitchTimeTable
from repro.programs.analysis.certify import (
    CertificationError,
    SliceCertificate,
    certify_slice,
)
from repro.programs.instrument import InstrumentedProgram, Instrumenter
from repro.programs.interpreter import Interpreter
from repro.programs.slicer import PredictionSlice, Slicer
from repro.workloads.base import InteractiveApp

__all__ = ["TrainedController", "build_controller", "profiled_input_ranges"]


@dataclass(frozen=True)
class TrainedController:
    """Everything the offline pipeline produced for one application.

    Attributes:
        app_name: The application this controller belongs to.
        instrumented: The instrumented program and its site schema.
        trace: The profiling trace the models were trained on.
        encoder: Feature encoder (column vocabulary fixed at train time).
        predictor: Trained anchor-time models.
        slice: The prediction slice (only the selected features).
        dvfs: The frequency-performance model.
        switch_table: 95th-percentile switch times.
        config: The configuration that produced all of the above.
        certificate: The slice certifier's verdict (None when the
            pipeline ran with ``certify="off"``).
    """

    app_name: str
    instrumented: InstrumentedProgram
    trace: ProfileTrace
    encoder: FeatureEncoder
    predictor: ExecutionTimePredictor
    slice: PredictionSlice
    dvfs: DvfsModel
    switch_table: SwitchTimeTable
    config: PipelineConfig
    certificate: SliceCertificate | None = None

    def governor(self, interpreter: Interpreter | None = None) -> PredictiveGovernor:
        """A run-time governor wired to these artifacts."""
        return PredictiveGovernor(
            slice=self.slice,
            predictor=self.predictor,
            dvfs=self.dvfs,
            switch_table=self.switch_table,
            interpreter=interpreter,
            certificate=self.certificate,
        )


def build_controller(
    app: InteractiveApp,
    opps: OppTable | None = None,
    config: PipelineConfig | None = None,
    switch_table: SwitchTimeTable | None = None,
    interpreter: Interpreter | None = None,
) -> TrainedController:
    """Run the full offline flow for one application.

    Args:
        app: The annotated application.
        opps: Operating points of the target platform.
        config: Pipeline knobs; paper defaults if omitted.
        switch_table: Pre-measured switch times (rebuilt via the
            microbenchmark if omitted).
        interpreter: Shared interpreter (platform timing constants).
    """
    opps = opps if opps is not None else default_xu3_a7_table()
    config = config if config is not None else PipelineConfig()
    interpreter = interpreter if interpreter is not None else Interpreter()

    # 1. Instrument.
    instrumented = Instrumenter().instrument(app.task.program)

    # 2. Profile with deployment-like timing noise.
    jitter = (
        LogNormalJitter(config.profile_jitter_sigma, seed=config.profile_seed)
        if config.profile_jitter_sigma > 0
        else NoJitter()
    )
    profiler = Profiler(interpreter, SimulatedCpu(jitter), opps)
    sample_inputs = app.inputs(config.n_profile_jobs, seed=config.profile_seed)
    trace = profiler.profile(instrumented, sample_inputs)

    # 3. Train (gamma scales with the data so one knob fits all apps).
    encoder = FeatureEncoder(instrumented.sites).fit(trace.raw_features)
    y_scale = float(np.mean(trace.times_s("fmax")))
    gamma = config.gamma_rel * len(trace) * y_scale
    predictor = ExecutionTimePredictor.train(
        encoder,
        trace,
        alpha=config.alpha,
        gamma=gamma,
        margin=config.margin,
        max_iter=config.max_iter,
        degree=config.model_degree,
    )

    # 4. Slice to the selected features.  "full" disables the slicer's
    # dependence pruning entirely — the slicing-off ablation, where the
    # predictor measures features by re-running the whole instrumented
    # program (still isolated, still paying marshalling).
    slicer = Slicer(
        marshal_base_instr=config.slice_marshal_base_instr,
        marshal_per_var_instr=config.slice_marshal_per_var_instr,
    )
    if config.slice_mode == "full":
        slice_ = slicer.slice(instrumented, None, prune=False)
    else:
        slice_ = slicer.slice(instrumented, set(predictor.needed_sites))

    # 5. Certify the slice before it can reach a governor.
    certificate = None
    if config.certify != "off":
        certificate = certify_slice(
            instrumented,
            slice_,
            needed_sites=frozenset(predictor.needed_sites),
            input_names=frozenset().union(
                *(frozenset(job) for job in sample_inputs)
            ),
            input_ranges=profiled_input_ranges(
                sample_inputs, widen=config.certify_input_widen
            ),
            waivers=app.certifier_waivers,
        )
        if not certificate.certified:
            if config.certify == "error":
                raise CertificationError(certificate)
            warnings.warn(
                f"slice for {app.name!r} failed certification: "
                + "; ".join(
                    d.format() for d in certificate.diagnostics if d.blocking
                ),
                stacklevel=2,
            )

    # 6. Switch-time microbenchmark.
    if switch_table is None:
        switch_table = SwitchLatencyModel(opps).microbenchmark(
            samples_per_pair=config.switch_samples
        )

    return TrainedController(
        app_name=app.name,
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


def profiled_input_ranges(
    sample_inputs, widen: float = 0.0
) -> dict[str, tuple[float, float]]:
    """Per-input (lo, hi) value ranges over the profiling sample.

    These seed the certifier's interval analysis.  ``widen`` stretches
    each range by that fraction of its span on both sides (a constant
    input widens by ``widen * |value|``), covering evaluation inputs
    from tails the profiling script never drew.
    """
    ranges: dict[str, tuple[float, float]] = {}
    for job in sample_inputs:
        for name, value in job.items():
            v = float(value)
            lo, hi = ranges.get(name, (v, v))
            ranges[name] = (min(lo, v), max(hi, v))
    if widen > 0:
        for name, (lo, hi) in ranges.items():
            pad = widen * ((hi - lo) or abs(lo))
            ranges[name] = (lo - pad, hi + pad)
    return ranges
