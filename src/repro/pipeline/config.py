"""Configuration of the offline controller-generation pipeline."""

from __future__ import annotations

from dataclasses import dataclass

from repro.checks import check_number

__all__ = ["PipelineConfig"]


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the offline flow (paper defaults unless noted).

    Attributes:
        alpha: Under-prediction penalty weight; the paper sweeps
            {1, 10, 100, 1000} and settles on 100 (§5.4, Fig. 20).
        gamma_rel: Relative L1 sparsity weight.  The absolute gamma fed to
            the solver is ``gamma_rel * n_samples * mean(y)``, making the
            knob meaningful across apps whose job times differ by three
            orders of magnitude.
        margin: Safety margin on predicted times (§3.4: 10%).
        model_degree: Execution-time model order — 1 is the paper's
            linear model; 2 adds squares/products (§3.5 extension).
            No other order is accepted.
        n_profile_jobs: Jobs profiled per app for training.
        profile_seed: Seed for the profiling input script (distinct from
            evaluation seeds — train and test inputs differ, as on the
            real system).
        profile_jitter_sigma: Timing-noise level during profiling.
        switch_samples: Samples per (start, end) pair for the switch-time
            microbenchmark (Fig. 11).
        max_iter: Solver iteration cap.
        slice_marshal_base_instr: Fixed slice start-up cost (instruction
            count) modelling the local-copy side-effect protection the
            paper's slices perform (§3.2) — this is what makes predictor
            execution time non-trivial (Fig. 17).
        slice_marshal_per_var_instr: Additional copy cost per variable the
            slice retains.
        certify: What to do with the slice certifier's verdict at train
            time: "error" refuses to hand an uncertified slice to the
            governor (raises
            :class:`~repro.programs.analysis.certify.CertificationError`),
            "warn" emits a ``UserWarning`` and continues, "off" skips
            certification entirely.
        certify_input_widen: How far beyond the profiled input range the
            interval analysis assumes inputs can stray, as a fraction of
            the observed span (0.5 = half a span on each side).  Guards
            the static cost bound against evaluation inputs drawn from
            the tails the profile missed.
        eval_n_jobs: Jobs per evaluation run (experiments may override
            per call).
        eval_n_jobs_overrides: Per-app evaluation job counts as
            ``(app_name, n_jobs)`` pairs.  pocketsphinx jobs are seconds
            long, so fewer of them keep simulated sessions comparable in
            wall-clock cost.
        slice_mode: What the slicer keeps: "selected" (default — only
            the sites the trained model uses, the paper's §3.2 slice)
            or "full" (every instrumented site, i.e. the predictor runs
            the whole program again).  "full" exists for ablations: it
            is what the governor pays when slicing is disabled, so the
            slicing component's value can be measured rather than
            asserted.
    """

    alpha: float = 100.0
    gamma_rel: float = 1e-2
    margin: float = 0.10
    model_degree: int = 1
    n_profile_jobs: int = 200
    profile_seed: int = 1_000_003
    profile_jitter_sigma: float = 0.02
    switch_samples: int = 200
    max_iter: int = 5000
    slice_marshal_base_instr: float = 80_000.0
    slice_marshal_per_var_instr: float = 6_000.0
    certify: str = "error"
    certify_input_widen: float = 0.5
    eval_n_jobs: int = 250
    eval_n_jobs_overrides: tuple[tuple[str, int], ...] = (("pocketsphinx", 40),)
    slice_mode: str = "selected"

    def __post_init__(self) -> None:
        if check_number(_OWNER, "alpha", self.alpha) <= 0:
            raise ValueError("alpha must be positive")
        for name in _NON_NEGATIVE:
            if check_number(_OWNER, name, getattr(self, name)) < 0:
                raise ValueError(f"{name} must be non-negative")
        check_number(_OWNER, "profile_seed", self.profile_seed, count=True)
        for name, least in _LEAST_COUNTS.items():
            value = check_number(_OWNER, name, getattr(self, name), count=True)
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        if self.model_degree > 2:
            raise ValueError(
                f"model_degree must be 1 or 2, got {self.model_degree}"
            )
        if self.certify not in ("off", "warn", "error"):
            raise ValueError(
                f"certify must be 'off', 'warn', or 'error', "
                f"got {self.certify!r}"
            )
        if self.slice_mode not in ("selected", "full"):
            raise ValueError(
                f"slice_mode must be 'selected' or 'full', "
                f"got {self.slice_mode!r}"
            )
        # JSON round-trips (pipeline.persist) deliver lists; normalize so
        # the config stays hashable and comparable.
        overrides = []
        for entry in self.eval_n_jobs_overrides:
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) != 2
                or not isinstance(entry[0], str)
            ):
                raise ValueError(
                    "PipelineConfig: eval_n_jobs_overrides entries must be "
                    f"(app name, job count) pairs, got {entry!r}"
                )
            app, jobs = entry
            check_number(
                _OWNER, f"eval_n_jobs_overrides[{app!r}]", jobs, count=True
            )
            if jobs < 1:
                raise ValueError("per-app eval job counts must be >= 1")
            overrides.append((app, jobs))
        object.__setattr__(self, "eval_n_jobs_overrides", tuple(overrides))

    def eval_jobs_for(self, app_name: str) -> int:
        """Evaluation job count for an application."""
        for name, jobs in self.eval_n_jobs_overrides:
            if name == app_name:
                return jobs
        return self.eval_n_jobs


_OWNER = "PipelineConfig"
#: Real fields that must be finite and >= 0.
_NON_NEGATIVE = (
    "gamma_rel",
    "margin",
    "profile_jitter_sigma",
    "slice_marshal_base_instr",
    "slice_marshal_per_var_instr",
    "certify_input_widen",
)
#: Count fields (ints, not bools) and the least value each may take.
_LEAST_COUNTS = {
    "model_degree": 1,
    "n_profile_jobs": 2,
    "switch_samples": 1,
    "max_iter": 1,
    "eval_n_jobs": 1,
}
