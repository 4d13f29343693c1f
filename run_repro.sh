#!/bin/sh
# Full-fidelity reproduction: every paper table and figure at the paper's
# horizon (4e6 s) and replication count (10). Results land in results/:
# each figure's printout (.txt), stderr (.log) and archive (.json).
#
# The ablations run at reduced fidelity by design:
#   * ablation_discipline includes a 10 ms round-robin quantum, which
#     multiplies the event count ~100x — a full-horizon run would take
#     hours; 5% of the horizon already gives tight intervals.
#   * the remaining ablations sweep wide, qualitative effects; half the
#     horizon with 5 replications resolves them comfortably.
set -e
cd "$(dirname "$0")"
cargo build --release -p hetsched-bench
bench=./target/release/hetsched-bench
mkdir -p results
run() {
    fig=$1
    shift
    echo "=== $fig ($*) ==="
    $bench "$fig" "$@" --json "results/$fig.json" > "results/$fig.txt" 2> "results/$fig.log"
    echo "    done: results/$fig.txt"
}
for fig in table1 table2 table3 fig2 fig3 fig4 fig5 fig6; do
    run $fig --full
done
run ablation_discipline --scale 0.05 --reps 5
for fig in ablation_sizes ablation_burstiness ablation_dispatcher extra_baselines; do
    run $fig --scale 0.5 --reps 5
done
echo ALL_DONE
