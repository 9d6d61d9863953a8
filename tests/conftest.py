"""Test configuration: property tests draw the same examples on every run
(no flaky tier-1 checks) and are not timed per example."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")
