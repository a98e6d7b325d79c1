"""Shared test settings.

Every hypothesis test derives its examples from the test itself
(derandomize), so a run repeats the previous one and a failure reproduces
without a saved example; no example database is kept.  Tests that pass
their own `@settings` keep them; the profile fills in the rest.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
