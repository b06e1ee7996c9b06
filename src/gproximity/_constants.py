"""Defaults, names and input domains shared by the command line and the
numeric modules.  This module imports no numpy, so the command line can
check its arguments and its instance file before it loads numeric code;
the numeric modules re-export each name where it was defined before."""
from __future__ import annotations

import math

#: Default absolute comparison slack.  All paper quantities are O(1), so
#: double-precision round-off sits far below this.
DEFAULT_TOL = 1e-9

#: Graph rules.  The first two are also the words of an instance file's
#: ``graph:`` line.
COMPLETE = "complete"
DIAGONAL = "diagonal"
EXPLICIT = "explicit"

#: Membership modes of ``analysis.enumerate_proximity_set``.
STRICT = "strict"
VACUOUS = "vacuous"

#: Most candidates a CRR constants grid may lay out: 24 bytes each in the
#: cached arrays, so 24 MB at the cap.  Grid 0.01 holds 87,125 of them.
MAX_CRR_CANDIDATES = 10 ** 6


def crr_grid_fits(grid_step: float) -> bool:
    """Whether 0 < grid_step < inf and the constants grid at that step lays
    out at most MAX_CRR_CANDIDATES candidates, tested before anything is
    built.  A candidate (i, j, k) * grid_step has i + 2j + k <= K =
    ceil(1 / grid_step) up to rounding; the unit cubes at those integer
    triples fill x + 2y + z < K + 4, of volume (K + 4)^3 / 12."""
    if not 0.0 < grid_step < math.inf:
        return False
    n = 1.0 / grid_step + 5.0  # >= K + 4; inf when 1 / grid_step overflows
    return n * n * n / 12.0 <= MAX_CRR_CANDIDATES
