"""DVFS governors: stock Linux baselines, PID, prediction-based, oracle."""

from repro.governors.adaptive import (
    AdaptiveConfig,
    AdaptiveGovernor,
    AdaptiveMode,
)
from repro.governors.base import Decision, Governor, JobContext
from repro.governors.batch import BatchPredictiveGovernor
from repro.governors.conservative import ConservativeGovernor
from repro.governors.interactive import InteractiveGovernor
from repro.governors.ondemand import OndemandGovernor
from repro.governors.oracle import OracleGovernor
from repro.governors.performance import PerformanceGovernor
from repro.governors.pid import PidGovernor
from repro.governors.powersave import PowersaveGovernor
from repro.governors.predictive import PredictiveGovernor

__all__ = [
    "AdaptiveConfig",
    "AdaptiveGovernor",
    "AdaptiveMode",
    "Decision",
    "Governor",
    "JobContext",
    "BatchPredictiveGovernor",
    "ConservativeGovernor",
    "InteractiveGovernor",
    "OndemandGovernor",
    "OracleGovernor",
    "PerformanceGovernor",
    "PidGovernor",
    "PowersaveGovernor",
    "PredictiveGovernor",
]
