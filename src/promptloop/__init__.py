"""Data-free iterative prompt optimization with an actor-critic feedback loop,
embedding-similarity scoring, and guided sentence-level mutation."""

__version__ = "0.1.0"
