"""Hypothesis profiles for the test suite.

``--hypothesis-profile=ci`` gives 2000 examples to each property test
whose settings read ``max(N, settings.default.max_examples)``; every
other test keeps its fixed count.  CI runs all of tier-1 under ``ci``
(.github/workflows/tests.yml).
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=2000, deadline=None)
