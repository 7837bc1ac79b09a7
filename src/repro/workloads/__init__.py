"""The paper's eight interactive benchmarks, re-modelled in the mini IR."""
