"""Tools for locating common fixed points of a one-parameter operator family
from two sampled operators.

The package is organized bottom-up:

* ``vecspace``     - points, convex domains, dense symmetric eigensolver
* ``semigroups``   - built-in operator families T(t) with known fixed sets
* ``stepseq``      - greedy time decompositions and the subtractive
                     remainder recursion for a pair of sample times
* ``characterize`` - residual checks, the two-operator averaging map, and
                     certification of candidate common fixed points
* ``schemes``      - iteration schemes driving a start point to the common
                     fixed set using only the two sampled operators
* ``cli``          - command line front end (``semiflow`` entry point)

The package exports the ``__all__`` of each module but ``cli``.
"""

from semiflow.vecspace import *  # noqa: F403
from semiflow.semigroups import *  # noqa: F403
from semiflow.stepseq import *  # noqa: F403
from semiflow.characterize import *  # noqa: F403
from semiflow.schemes import *  # noqa: F403

__version__ = "0.1.0"
