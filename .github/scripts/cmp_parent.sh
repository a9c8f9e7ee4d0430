#!/bin/sh
# Runs one set of commands on two trees, the working tree and BASE
# (default HEAD^), and compares what they write:
# - swarmuq run, at seeds 1 and 3 on 1 and 2 threads, of
#   - the three benchmark workload configs: mill_2d_desk for 100 steps,
#     combined_2d_desk for 40 and the homogeneous preset with S = 100
#     for 50;
#   - cs_1d_desk, cs_2d_desk, mill_2d_desk and combined_2d_desk for 20
#     steps;
#   - the homogeneous preset with S = 20 for 20 steps;
# - swarmuq converge --sweep M=1,2,3, at seeds 1 and 3 on 1 and 2
#   threads, of the homogeneous preset with N = 1000 and S = 20 for 10
#   steps;
# - swarmuq oracle of the homogeneous preset.
# BASE is checked out with git worktree add, so no network is needed.
# Each config is written to a file once and both trees read that file, so
# that the manifests' source= lines agree.
#
# Every artifact other than manifest.txt must match byte for byte, and
# both trees must write the same files, unless swarmuq.__version__
# differs between the two trees: a change of the random stream bumps the
# version.  Then the differences are listed and the script passes.  Each
# manifest.txt is compared without its out_dir= line; a difference is
# printed but does not fail the script.
#
# Usage, from the repository root: sh .github/scripts/cmp_parent.sh [BASE] [dir]
# Outputs go to dir, else $RUNNER_TEMP, else a new temporary directory.
set -eu
base_rev=$(git rev-parse --verify "${1:-HEAD^}^{commit}")
out="${2:-${RUNNER_TEMP:-$(mktemp -d)}}/cmp_parent"
head_tree=$(git rev-parse --show-toplevel)
base_tree="$out/base_tree"
mkdir -p "$out/cfg"
git worktree add --quiet --detach "$base_tree" "$base_rev"
trap 'git -C "$head_tree" worktree remove --force "$base_tree"' EXIT

# name preset t_end [S N]: the preset with t_end and, if given, S and N replaced
config() {
  sed -e "s/^t_end = .*/t_end = $3/" -e "${4:+s/^S = .*/S = $4/}" -e "${5:+s/^N = .*/N = $5/}" \
    "$head_tree/src/swarmuq/presets/$2.cfg" > "$out/cfg/$1.cfg"
}
config mill_morse mill_2d_desk 2.0
config combined_tensor combined_2d_desk 0.4
config homogeneous_dense homogeneous 0.5 100
for name in cs_1d_desk cs_2d_desk combined_2d_desk; do
  config "${name}_20" "$name" 0.2
done
config mill_2d_desk_20 mill_2d_desk 0.4
config homogeneous_s20 homogeneous 0.2 20
config converge homogeneous 0.1 20 1000
config oracle homogeneous 1.0

for side in base head; do
  if [ "$side" = base ]; then tree="$base_tree"; else tree="$head_tree"; fi
  start=$(date +%s)
  for seed in 1 3; do
    for threads in 1 2; do
      for cfg in mill_morse combined_tensor homogeneous_dense cs_1d_desk_20 cs_2d_desk_20 \
                 mill_2d_desk_20 combined_2d_desk_20 homogeneous_s20; do
        PYTHONPATH="$tree/src" python -m swarmuq.cli run "$out/cfg/$cfg.cfg" --seed "$seed" \
          --threads "$threads" --out "$out/$side/${cfg}_seed${seed}_w$threads"
      done
      PYTHONPATH="$tree/src" python -m swarmuq.cli converge "$out/cfg/converge.cfg" --sweep M=1,2,3 \
        --seed "$seed" --threads "$threads" --out "$out/$side/converge_seed${seed}_w$threads"
    done
  done
  PYTHONPATH="$tree/src" python -m swarmuq.cli oracle "$out/cfg/oracle.cfg" --out "$out/$side/oracle"
  echo "$side ($tree): $(($(date +%s) - start)) s"
done

for manifest in "$out"/head/*/manifest.txt "$out"/base/*/manifest.txt; do
  grep -v '^out_dir=' "$manifest" > "$manifest.cmp"
done
for manifest in "$out"/head/*/manifest.txt.cmp; do
  run="${manifest%/manifest.txt.cmp}"
  diff -u "$out/base/${run##*/}/manifest.txt.cmp" "$manifest" || echo "manifest.txt differs in ${run##*/}"
done
versions=$(for tree in "$base_tree" "$head_tree"; do
  PYTHONPATH="$tree/src" python -c 'import swarmuq; print(swarmuq.__version__)'
done | sort -u | tr '\n' ' ')
if diff -rq -x manifest.txt -x manifest.txt.cmp "$out/base" "$out/head"; then
  echo "every artifact of $base_rev and the working tree is byte-identical in $out"
elif [ "$(echo $versions | wc -w)" -gt 1 ]; then
  echo "artifacts differ, and so do the versions: $versions"
else
  echo "artifacts differ at the same version $versions" >&2
  exit 1
fi
