"""Mini task language: IR, interpreter, instrumentation, and slicing.

This package is the stand-in for the paper's C-source tooling: the same
pipeline — annotate a task, instrument its control flow, profile it, slice
out a fast feature-computing fragment — operates on a small structured IR
instead of C.  Control-flow semantics (branches, counted loops, calls
through function pointers) are real, so instrumentation and slicing are
genuine program transformations.
"""
