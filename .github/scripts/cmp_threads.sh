#!/bin/sh
# Runs each of these once on 1 thread and once on 2:
# - 10 steps of combined_2d_desk: 8 row chunks of 125 per stage on one
#   thread, and 8 shared by two workers, 4 each;
# - 10 steps of mill_2d_desk, the Morse-only branch of the node path: 4
#   row chunks of 500 per stage on one thread and on two workers;
# - 10 steps of cs_2d_desk, the branch of two-dimensional alignment
#   without Morse: 2 row chunks of 500 per stage, one for each of two
#   workers;
# - 5 steps of the homogeneous preset with S = 100, whose subsample mean
#   two workers share as 46 row chunks of 218 rows (the last one of 190),
#   and whose subsample table they draw as 8 row blocks of the sorted
#   redraw;
# - 2 steps of cs_1d (N = 10^5, S = 5), whose table is 4 collision-light
#   row blocks;
# - 2 steps of mill_2d (N = 10^5, S = 10): a uint32 subsample table of 8
#   collision-light row blocks, the Morse-only node rate held in the node
#   velocities, and 275 row chunks of 364 per stage on one thread, 276
#   of 363 on two workers, 138 each.
# It fails unless both runs write the same CSV artifacts (stats.csv,
# ensemble_final.csv, every density_*.csv and, in 2D,
# velocity_field.csv) and each matches byte for byte, and unless their
# manifest.txt files match once the threads= and out_dir= lines, which
# differ by design, are removed: the resolved configuration does not
# depend on the worker count.
#
# Usage, from the repository root: sh .github/scripts/cmp_threads.sh [dir]
# Outputs go to dir, else $RUNNER_TEMP, else a new temporary directory.
set -eu
out="${1:-${RUNNER_TEMP:-$(mktemp -d)}}"
# name:t_end, or name:t_end:S to also replace the preset's subsample size
for p in combined_2d_desk:0.1 mill_2d_desk:0.2 cs_2d_desk:0.1 homogeneous:0.05:100 cs_1d:0.02 mill_2d:0.02; do
  name="${p%%:*}"
  rest="${p#*:}"
  case "$rest" in
    *:*) subsample="s/^S = .*/S = ${rest#*:}/" ;;
    *) subsample="" ;;
  esac
  sed -e "s/^t_end = .*/t_end = ${rest%%:*}/" -e "$subsample" \
    "src/swarmuq/presets/$name.cfg" > "$out/${name}_short.cfg"
  for t in 1 2; do
    PYTHONPATH=src python -m swarmuq.cli run "$out/${name}_short.cfg" --threads "$t" --out "$out/${name}_threads_$t"
  done
  for f in "$out/${name}_threads_1"/*.csv "$out/${name}_threads_2"/*.csv; do
    cmp "$out/${name}_threads_1/${f##*/}" "$out/${name}_threads_2/${f##*/}"
  done
  for t in 1 2; do
    grep -v -e '^threads=' -e '^out_dir=' "$out/${name}_threads_$t/manifest.txt" > "$out/${name}_manifest_$t.txt"
  done
  cmp "$out/${name}_manifest_1.txt" "$out/${name}_manifest_2.txt"
done
echo "1- and 2-thread outputs and manifests are byte-identical in $out"
