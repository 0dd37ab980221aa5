"""Test-suite settings: the hypothesis profile every property test runs under."""
from __future__ import annotations

from hypothesis import settings

settings.register_profile("gapsums", deadline=None, max_examples=60)
settings.load_profile("gapsums")
