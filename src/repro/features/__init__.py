"""Feature extraction: encoding, profiling traces, and the profiler."""
