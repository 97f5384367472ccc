"""Hypothesis profiles: `HYPOTHESIS_PROFILE=ci` makes every property test
derandomized, with no example database and no deadline, so a failure in CI
reproduces anywhere with the same command."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
