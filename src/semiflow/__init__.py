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
"""

from semiflow.vecspace import (
    HARD_DIM_CAP,
    Ball,
    Box,
    as_point,
    combine,
    dist,
    max_dim,
    sym_eigendecompose,
)
from semiflow.semigroups import (
    FixedSetDescriptor,
    SemigroupSpec,
    analytic_fixed_set,
    decay,
    evaluate,
    fixed_set_distance,
    from_descriptor,
    heat,
    operator,
    rotation,
)
from semiflow.stepseq import (
    EuclidSequence,
    GreedyDecomposition,
    euclid_sequence,
    geometric,
    greedy_decompose,
    replay_action,
)
from semiflow.characterize import (
    Certificate,
    NearRationalWarning,
    ResidualProfile,
    bruck_map,
    certify_common_fixed,
    default_profile_grid,
    residual_pair,
    residual_profile,
)
from semiflow.schemes import (
    ConvergenceReport,
    IterateRecord,
    IterationConfig,
    Schedule,
    baillon_double,
    baillon_power_average,
    browder_implicit,
    halpern,
    ishikawa_composed,
    make_schedule,
    mann,
    parse_schedule,
    run_scheme,
    suzuki_averaged_mann,
)

__version__ = "0.1.0"
