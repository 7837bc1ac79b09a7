"""Offline pipeline: instrument -> profile -> train -> slice -> controller."""
