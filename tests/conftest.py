"""Settings shared by the test modules.

The ``hypothesis`` properties run derandomized in tier-1: each draws the
same examples on every run, so that tier-1 takes the same time on every
run (a fresh draw once took a single property from 1 to 32 s).  Heavy
shapes that a draw might miss are explicit ``@example``s.  Exploration
with fresh seeds is a separate run of the same properties:

    python -m pytest --hypothesis-profile=explore --hypothesis-seed=<n>

Settings given in a test's own ``@settings`` (``max_examples``,
``deadline``) still apply under either profile.
"""

try:
    from hypothesis import settings
except ImportError:  # the hypothesis-backed modules skip themselves
    pass
else:
    # no example database: a stored failure would be replayed first and
    # change what a run draws
    settings.register_profile("tier1", derandomize=True, database=None)
    settings.register_profile("explore", derandomize=False, database=None)
    settings.load_profile("tier1")
