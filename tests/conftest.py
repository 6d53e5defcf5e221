"""Shared test settings.

Property tests draw their examples from a fixed seed, so every run of
the suite checks the same examples; deadlines and example counts keep
Hypothesis's defaults.
"""
from hypothesis import settings

settings.register_profile("decochaos", derandomize=True)
settings.load_profile("decochaos")
