"""Hypothesis settings for the property tests.

derandomize draws the same examples on every run, so the suite gives the
same verdict each time; deadline=None keeps a slow example on a loaded
host from failing; database=None leaves no example cache in the tree.
"""

from hypothesis import settings

settings.register_profile("brownlab", derandomize=True, deadline=None, database=None)
settings.load_profile("brownlab")
