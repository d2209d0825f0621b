"""Hypothesis profiles for the test suite.

``--hypothesis-profile=ci`` runs the property tests that read it with
2000 examples each; see the flood, marker, bat, SSIM, filter, PGM
header and wavelet enhancement steps in .github/workflows/tests.yml.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=2000, deadline=None)
