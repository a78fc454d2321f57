"""Tier-1 draws the same hypothesis examples on every run.

``HYPOTHESIS_PROFILE=explore`` restores fresh random draws (and the
example database) for whoever wants to search for new failures.
"""

import os

from hypothesis import settings

settings.register_profile(
    "tier1", derandomize=True, deadline=None, database=None
)
settings.register_profile("explore", deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
