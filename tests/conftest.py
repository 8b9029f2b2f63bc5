"""Hypothesis draws the same examples on every run: tier-1 results do not vary by run.

A derandomized profile seeds each test from a hash of its function and uses no
example database. Each test's own ``max_examples`` still applies.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
