#!/usr/bin/env bash
# Run the CLI commands whose artifacts must match a base commit's byte for byte.
#
# Usage: tools/byte_check.sh TREE
#
# Runs every command with TREE/src on PYTHONPATH from the directory
# TREE/runs (made if missing), which receives each command's CSV and JSON
# files and its stdout and stderr as NAME.out and NAME.err.  Each command
# may end with exit 0 or with the one exit code named after its file stem
# (2 budget spent, 4 not certified, 64 rejected input); any other exit
# stops the script with a nonzero status.  Run it on two checkouts, each
# from its own TREE with the same relative layout (so the paths written
# into the JSON files agree), and compare them with
#
#   diff -r TREE_A/runs TREE_B/runs
set -euo pipefail

tree=$(cd "$1" && pwd)
mkdir -p "$tree/runs"
cd "$tree/runs"

cli() {
  name=$1 ok=$2
  shift 2
  PYTHONPATH="$tree/src" python3 -m semiflow.cli "$@" > "$name.out" 2> "$name.err" || test $? -eq "$ok"
}

rot=rotation:period=1,center=0.5,-0.25
pair="--alpha 1 --beta 1.4142135623730951"
for s in halpern mann baillon_double browder_implicit \
    suzuki_averaged_mann ishikawa_composed baillon_power_average; do
  cli "$s" 2 run --scheme "$s" --semigroup "$rot" $pair --u=1,0 --seed 3 --csv "$s.csv"
done
cli mann_decay 2 run --scheme mann --semigroup decay:dim=3 $pair --seed 3 --csv mann_decay.csv
# runs that converge inside the driver's blocks of iterates: at n=11181, at
# n=373 and, recording every iterate, at n=477
cli halpern_tol_1e-4 0 run --scheme halpern --semigroup "$rot" $pair --u=1,0 --seed 3 --tol 1e-4 \
  --csv halpern_tol_1e-4.csv
cli halpern_tol_3e-3 0 run --scheme halpern --semigroup "$rot" $pair --u=1,0 --seed 3 --tol 3e-3 \
  --csv halpern_tol_3e-3.csv
cli baillon_power_average_record_all 0 run --scheme baillon_power_average --semigroup "$rot" $pair \
  --seed 3 --tol 1e-2 --record-all --csv baillon_power_average_record_all.csv
# the double averages on a box domain, whose rows each take one block call
cli suzuki_decay 0 run --scheme suzuki_averaged_mann --semigroup decay:dim=3 $pair --seed 3 \
  --csv suzuki_decay.csv
cli baillon_double_decay 2 run --scheme baillon_double --semigroup decay:dim=3 $pair --seed 3 \
  --csv baillon_double_decay.csv
# a rotation in 3 dimensions, whose fixed set is an affine line
rot3=rotation:period=1,center=0.5,-0.25,dim=3,radius=5
cli mann_rotation3 2 run --scheme mann --semigroup "$rot3" $pair --seed 3 --csv mann_rotation3.csv
# the schemes whose d=3 rotation points go through the one-point kernels
for run in baillon_double:2 browder_implicit:2 suzuki_averaged_mann:2 ishikawa_composed:0 \
    baillon_power_average:2; do
  s=${run%:*}
  cli "${s}_rotation3" "${run#*:}" run --scheme "$s" --semigroup "$rot3" $pair --u=1,0,0.5 --seed 3 \
    --max-iter 40 --csv "${s}_rotation3.csv"
done
# bare descriptors: every parameter takes its constructor's default
cli mann_rotation_defaults 0 run --scheme mann --semigroup rotation: $pair --seed 3 \
  --csv mann_rotation_defaults.csv
cli mann_decay_defaults 0 run --scheme mann --semigroup decay: $pair --seed 3 --csv mann_decay_defaults.csv
# a radius-1 rotation from a start on its boundary, whose first images the
# float iteration of a d=2 rotation hands to the exact projection
small=rotation:period=1,center=0.5,-0.25,radius=1
cli mann_boundary 0 run --scheme mann --semigroup "$small" $pair --x0=1.5,-0.25 --csv mann_boundary.csv
cli halpern_boundary 2 run --scheme halpern --semigroup "$small" $pair --x0=1.5,-0.25 --u=1,0 \
  --csv halpern_boundary.csv
cli halpern_power 2 run --scheme halpern --semigroup "$rot" $pair --u=1,0 --seed 3 --schedule power:0.5,3 \
  --csv halpern_power.csv
# a center farther than 2^20 radii from the origin, whose ball has no interior test: every
# iterate of the float iteration projects its images in the loop's fallback, for each rule
far=rotation:period=1,center=3e6,0,radius=1
cli halpern_far_center 2 run --scheme halpern --semigroup "$far" $pair --x0=3000000,0.5 --u=3000000.5,0 \
  --csv halpern_far_center.csv
cli mann_far_center 0 run --scheme mann --semigroup "$far" $pair --x0=3000000,0.5 --csv mann_far_center.csv
# the float iteration's Fejer count, taken once per block, recording every iterate up to
# its convergence at n=1136
cli mann_record_all 0 run --scheme mann --semigroup "$rot" $pair --seed 3 --kappa 0.01 --lambda 0.01 \
  --record-all --csv mann_record_all.csv
# the same past the float iteration's block cap, converging inside a block of 1024 at n=11438
cli mann_slow_record_all 0 run --scheme mann --semigroup "$rot" $pair --seed 3 --kappa 0.001 \
  --lambda 0.001 --max-iter 50000 --record-all --csv mann_slow_record_all.csv
# the float path's block weights with a harmonic offset and with a power, and block
# recording of every iterate in a run that converges inside a block, at n=11603
cli halpern_harmonic_7 2 run --scheme halpern --semigroup "$rot" $pair --u=1,0 --seed 3 \
  --schedule harmonic:7 --csv halpern_harmonic_7.csv
cli halpern_power_record_all 0 run --scheme halpern --semigroup "$rot" $pair --u=1,0 --seed 3 \
  --schedule power:0.75,2 --record-all --tol 1e-3 --csv halpern_power_record_all.csv
# an anchor on the circle, whose blocks the float iteration cannot prove inside, so
# that each tests its iterates
cli halpern_anchor_on_circle 2 run --scheme halpern --semigroup "$rot" $pair --u=10.5,-0.25 --seed 3 \
  --csv halpern_anchor_on_circle.csv
# a run that converges at n=112, inside the float iteration's doubled block of n=65 to 128
cli halpern_tol_1e-2 0 run --scheme halpern --semigroup "$rot" $pair --u=1,0 --seed 3 --tol 1e-2 \
  --csv halpern_tol_1e-2.csv
# a run whose float blocks from n=65 on take norms only for their kept and last iterates,
# until the block that converges, at n=1259, is taken whole
cli mann_tol_1e-9 0 run --scheme mann --semigroup "$rot" $pair --seed 3 --kappa 0.01 --lambda 0.01 \
  --tol 1e-9 --csv mann_tol_1e-9.csv
cli euclid 0 euclid $pair
cli decompose 0 decompose --t 3.141592653589793 --ratio 0.5
cli verify 4 verify --semigroup "$rot" $pair --point 0.5,-0.25
# a point inside the ball within the interior test's margin, whose images are projected,
# and one far inside, whose certificate skips every projection
cli verify_margin 4 verify --semigroup "$rot" $pair --point 10.499999999,-0.25
cli verify_inside 4 verify --semigroup "$rot" $pair --point 3,1
# a rational pair: a NearRationalWarning on stderr
cli verify_rational 4 verify --semigroup "$rot" --alpha 1 --beta 2 --point 0.5,-0.25
# points and anchors outside the domain or of the wrong dimension, rejected where they enter
cli verify_outside 64 verify --semigroup "$rot" $pair --point 20,0
cli mann_start_outside 64 run --scheme mann --semigroup "$rot" $pair --x0=20,0 --csv mann_start_outside.csv
cli mann_start_dim 64 run --scheme mann --semigroup "$rot" $pair --x0=1,2,3 --csv mann_start_dim.csv
cli halpern_anchor_outside 64 run --scheme halpern --semigroup "$rot" $pair --u=30,0 --seed 3 \
  --csv halpern_anchor_outside.csv
# a certificate on a box domain: the origin is the decay flow's one fixed point
cli verify_decay 0 verify --semigroup decay:dim=3 $pair --point 0,0,0
cli sweep 2 sweep --scheme mann --semigroup "$rot" $pair --seeds 0,1,2 --out-dir sweep_mann
# rows that end in different blocks of iterates, recording every iterate: at n=108,
# n=203 and n=481
cli sweep_power_record_all 0 sweep --scheme baillon_power_average --semigroup "$rot" $pair \
  --seeds 0,1,2 --tol 1e-2 --record-all --out-dir sweep_power_record_all
# a budget that ends one iterate past the first block
cli sweep_mann_budget_9 2 sweep --scheme mann --semigroup decay:dim=3 $pair --seeds 0,1,2 --max-iter 9 \
  --out-dir sweep_mann_budget_9
# rows of one block, each to the default halpern budget
cli sweep_halpern 2 sweep --scheme halpern --semigroup "$rot" $pair --u=1,0 --seeds 0,1,2 \
  --out-dir sweep_halpern
# the heat family, whose rows may differ from single runs by rounding:
# a 4x4 path Laplacian, named by a relative path
printf '1 -1 0 0\n-1 2 -1 0\n0 -1 2 -1\n0 0 -1 1\n' > path4.txt
heat=heat:matrix=path4.txt
# the schemes that take blocks of one point, on the family whose matrix products
# round with the batch size
for run in browder_implicit:2 ishikawa_composed:0 baillon_double:2 suzuki_averaged_mann:2; do
  s=${run%:*}
  cli "${s}_heat" "${run#*:}" run --scheme "$s" --semigroup "$heat" $pair --u=1,0,0,0 --seed 3 \
    --max-iter 40 --csv "${s}_heat.csv"
done
# certificates of a heat point: the constant vector spans the kernel, a unit vector does not
cli verify_heat 0 verify --semigroup "$heat" $pair --point 1,1,1,1
cli verify_heat_moved 4 verify --semigroup "$heat" $pair --point 1,0,0,0
# a 16-node path Laplacian, whose profiles take more than one orbit block: a moved
# point's certificate computes only the blocks that can hold its maximum
python3 -c 'import numpy as np; np.savetxt("path16.txt", np.diag([1.0] + [2.0] * 14 + [1.0]) - np.eye(16, k=1) - np.eye(16, k=-1))'
heat16=heat:matrix=path16.txt
cli verify_heat16_moved 4 verify --semigroup "$heat16" $pair --point 1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0
cli verify_heat16 0 verify --semigroup "$heat16" $pair --point 1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1
cli verify_heat16_grid 4 verify --semigroup "$heat16" $pair --point 2,0,-1,0,0,1,0,0,0,0,0,0,0,0,0,3 \
  --grid 0:20:0.01
# a point outside the ball within the membership slack: every block and its t = 0 row
# are projected
cli verify_heat16_outside 4 verify --semigroup "$heat16" $pair \
  --point 10.0000000005,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0
# a box certificate whose grid takes two orbit blocks
cli verify_decay_grid 4 verify --semigroup decay:dim=3 $pair --point 5,0.5,3 --grid 0:20:0.01
cli mann_heat 2 run --scheme mann --semigroup "$heat" $pair --seed 3 --csv mann_heat.csv
cli sweep_mann_heat 2 sweep --scheme mann --semigroup "$heat" $pair --seeds 0,1,2 \
  --out-dir sweep_mann_heat
# heat rows that converge inside one block, at n=49 to n=54
cli sweep_mann_heat_tol 0 sweep --scheme mann --semigroup "$heat" $pair --seeds 0,1,2,3,4 --tol 1e-6 \
  --out-dir sweep_mann_heat_tol
cli sweep_halpern_heat 2 sweep --scheme halpern --semigroup "$heat" $pair --u=1,0,0,0 \
  --seeds 0,1,2 --out-dir sweep_halpern_heat
# a positive definite generator: the fixed set is the origin alone
printf '2 -1\n-1 2\n' > pd2.txt
cli mann_heat_pd 0 run --scheme mann --semigroup heat:matrix=pd2.txt $pair --seed 3 --csv mann_heat_pd.csv
cli sweep_halpern_heat_pd 2 sweep --scheme halpern --semigroup heat:matrix=pd2.txt $pair --u=1,0 \
  --seeds 0,1,2 --out-dir sweep_halpern_heat_pd
# the help of every subcommand with options, at a fixed width, so that a change
# in how the parsers are built shows as a difference
for c in run sweep euclid verify decompose; do
  COLUMNS=80 cli "help_$c" 0 "$c" --help
done
