"""Hypothesis draws the same examples on every run, locally and in CI: a
failure seen once is seen again, and a pass does not depend on luck."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
