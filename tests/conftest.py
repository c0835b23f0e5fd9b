"""Shared test settings: hypothesis runs a fixed set of examples, so the suite is deterministic."""
from hypothesis import settings

settings.register_profile(
    "deterministic", derandomize=True, max_examples=60, deadline=None, database=None
)
settings.load_profile("deterministic")
