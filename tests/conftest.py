"""Hypothesis profiles: `HYPOTHESIS_PROFILE=ci` makes every property test
derandomized, with no example database and no deadline, so a failure in CI
reproduces anywhere with the same command."""

import os

import pytest
from hypothesis import settings

from sdcsim import protocol

settings.register_profile("ci", derandomize=True, database=None, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def fresh_compile_memo():
    """`protocol.compile_optics` with its memo emptied before and after the test,
    so a test that injects through a module-level function of `protocol` neither
    reads a model compiled before it nor leaves one behind."""
    protocol.compile_optics.cache_clear()
    yield protocol.compile_optics
    protocol.compile_optics.cache_clear()
