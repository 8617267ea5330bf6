"""One Hypothesis profile for the suite: derandomized, no deadline, no example database.

Each Hypothesis test then sets only ``max_examples``.
"""

try:
    from hypothesis import settings
except ImportError:  # the Hypothesis suites skip themselves
    pass
else:
    settings.register_profile("storagesim", derandomize=True, deadline=None, database=None)
    settings.load_profile("storagesim")
