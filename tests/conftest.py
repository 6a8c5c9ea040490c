"""Shared pytest configuration: Hypothesis profiles.

``ci-long`` is the seeded long fuzzing run, selected with
``--hypothesis-profile=ci-long``; tier-1 runs keep the default profile,
and fuzzers bound their own example budget under it.
"""

from hypothesis import settings

settings.register_profile("ci-long", max_examples=1500, deadline=None)
