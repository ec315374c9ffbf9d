"""Test-suite set-up: the hypothesis profile every property test runs under.

The profile is derandomized, so each run draws the same examples and a
failure reproduces, and it has no deadline, since one example may close a
subgroup of an order-64 vertex group under normal-form products.
"""

from hypothesis import settings

settings.register_profile("vfree", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("vfree")
