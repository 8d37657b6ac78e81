#!/usr/bin/env bash
# Alternating A/B pairs of the end-to-end benchmark.
#
# Builds two revisions of the repository, each from its own export
# (`git archive`, so an interrupted run leaves no worktree registered in the
# repository) into its own target directory, offline. Then runs N pairs of
# the unmodified `benchmark/run.sh --workload W --seed S` of each export,
# the side that goes first alternating from pair to pair. For every
# end-to-end metric of BENCHMARK.json it prints each pair's ratio
# (head / base), how many pairs head won, and each side's median and
# interquartile range. `--workload all` builds each side once, then runs the
# pairs of every workload of the head's BENCHMARK.json in turn, one table
# each. The checkout itself, its benchmark/Cargo.lock included, is left
# untouched.
#
# Usage, from anywhere inside the repository:
#   scripts/ab_pairs.sh [--base REV] [--head REV] [--workload W|all]
#                       [--seed S] [--pairs N] [--work DIR]
# Defaults: --base HEAD^ --head HEAD --workload sum_ckpt_tight_hbm --seed 7
# --pairs 10 and a fresh temporary --work directory (exports, target
# directories and every run's output), which is kept and named at the end.
# Every run lasts the benchmark's own run length, the same on both sides.
set -euo pipefail

base=HEAD^ head=HEAD workload=sum_ckpt_tight_hbm seed=7 pairs=10 work=
while [ $# -gt 0 ]; do
    case "$1" in
        --base) base=$2 ;;
        --head) head=$2 ;;
        --workload) workload=$2 ;;
        --seed) seed=$2 ;;
        --pairs) pairs=$2 ;;
        --work) work=$2 ;;
        *) echo "usage: $0 [--base REV] [--head REV] [--workload W|all] [--seed S] [--pairs N] [--work DIR]" >&2
           exit 2 ;;
    esac
    shift 2
done

repo=$(git rev-parse --show-toplevel)
work=${work:-$(mktemp -d)}
mkdir -p "$work"

for side in base head; do
    rev=${!side}
    rm -rf "${work:?}/$side"
    mkdir -p "$work/$side"
    git -C "$repo" archive "$(git -C "$repo" rev-parse --verify "$rev^{commit}")" | tar -x -C "$work/$side"
    echo "building $side ($rev)" >&2
    cargo build --release --offline --quiet --manifest-path "$work/$side/benchmark/Cargo.toml" \
        --target-dir "$work/$side-target" >&2
done

# One run of `side`: its metric lines appended to $work/<workload>-<side>.tsv
# as `pair metric value`.
run() {
    local side=$1 pair=$2
    CARGO_TARGET_DIR="$work/$side-target" bash "$work/$side/benchmark/run.sh" \
        --workload "$workload" --seed "$seed" --out "$work/$side-out" \
        | awk -v pair="$pair" -v w="$workload" '$1 == w && NF == 4 { print pair, $2, $3 }' \
        >> "$work/$workload-$side.tsv"
}

# `metric better` for every end-to-end metric, from the head's manifest.
sed -n '/"end_to_end"/,/\]/p' "$work/head/BENCHMARK.json" \
    | sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([a-z]*\)".*/\1 \2/p' > "$work/metrics.txt"

workloads=$workload
if [ "$workload" = all ]; then
    workloads=$(sed -n '/"workloads"/,/"end_to_end"/p' "$work/head/BENCHMARK.json" \
        | sed -n 's/.*{"name": *"\([^"]*\)".*/\1/p')
fi

# The table of `workload`'s pairs: per metric, each pair's ratio, head's
# wins, and each side's median and interquartile range.
table() {
    awk '
        FILENAME ~ /metrics.txt$/ { better[$1] = $2; order[++m] = $1; next }
        FILENAME ~ /base.tsv$/ { b[$2, $1] = $3; next }
        { h[$2, $1] = $3; pairs = $1 > pairs ? $1 : pairs }
        # Linear-interpolated quantile q of v[1..n], sorted in place.
        function quantile(v, n, q,    i, j, t, x) {
            for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t }
            x = 1 + (n - 1) * q; i = int(x)
            return i >= n ? v[n] : v[i] + (x - i) * (v[i + 1] - v[i])
        }
        END {
            for (k = 1; k <= m; k++) {
                name = order[k]; wins = 0; ratios = ""; n = 0
                for (p = 1; p <= pairs; p++) {
                    if (!((name, p) in b) || !((name, p) in h)) continue
                    n++; vb[n] = b[name, p]; vh[n] = h[name, p]
                    ratios = ratios sprintf(" %.3f", vb[n] == 0 ? 0 : vh[n] / vb[n])
                    if (better[name] == "higher" ? vh[n] > vb[n] : vh[n] < vb[n]) wins++
                }
                if (n == 0) continue
                bm = quantile(vb, n, 0.5); biqr = quantile(vb, n, 0.75) - quantile(vb, n, 0.25)
                hm = quantile(vh, n, 0.5); hiqr = quantile(vh, n, 0.75) - quantile(vh, n, 0.25)
                printf "%-20s %-6s base %.4g (IQR %.3g)  head %.4g (IQR %.3g)  median ratio %.3f  head wins %d/%d\n",
                    name, better[name], bm, biqr, hm, hiqr, bm == 0 ? 0 : hm / bm, wins, n
                printf "%-20s pairs:%s\n", "", ratios
            }
        }
    ' "$work/metrics.txt" "$work/$workload-base.tsv" "$work/$workload-head.tsv"
}

for workload in $workloads; do
    rm -f "$work/$workload-base.tsv" "$work/$workload-head.tsv"
    for pair in $(seq 1 "$pairs"); do
        echo "pair $pair of $pairs" >&2
        if [ $((pair % 2)) -eq 1 ]; then
            run base "$pair"; run head "$pair"
        else
            run head "$pair"; run base "$pair"
        fi
    done
    echo "$workload, seed $seed, $pairs pairs: head $head vs base $base (ratio = head / base)"
    table
done
echo "runs kept in $work" >&2
