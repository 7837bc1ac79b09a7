"""DVFS governors: stock Linux baselines, PID, prediction-based, oracle."""
