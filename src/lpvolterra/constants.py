"""The values the command line checks its arguments against, shared with
the modules that use them.

They live here rather than in ``analysis``, ``checks`` and ``verify`` so
that building the parser and refusing a bad argument load none of those
modules, nor the mpmath that ``checks`` imports.
"""

# the approximant families of a radius estimate
FAMILY_PADE = "pade"
FAMILY_HERMITE_PADE = "hermite-pade"
FAMILIES = (FAMILY_PADE, FAMILY_HERMITE_PADE)

# the spread threshold of radius scans, looser than stable_singularity's
# own default (radius_scan says why)
SCAN_THRESHOLD = 5e-2

# the levels of the check suites
LEVELS = ("quick", "full")

# the halved-step comparison cannot certify errors below a few ulps, so
# the error estimate is floored at this fraction of the state's scale; a
# tolerance below it surfaces as step underflow
ERROR_FLOOR = 1e-15
