#!/usr/bin/env bash
# Prints the simulated half of a short missionbench run of every workload:
# the per-mission rows without their host timings, and the five simulated
# end-to-end metrics. None of it depends on the host, so a change that
# only speeds the code up must print exactly
# ci/missionbench_seed1_simulated.txt:
#
#   ci/missionbench_simulated.sh | diff ci/missionbench_seed1_simulated.txt -
#
# A change that alters simulated behaviour regenerates that file in its
# own commit:
#
#   ci/missionbench_simulated.sh > ci/missionbench_seed1_simulated.txt
#
# Run from the repository root.
set -euo pipefail
for workload in static_aware static_oblivious dynamic_nodes; do
  cargo run --quiet --release --offline --manifest-path missionbench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 0
done |
  grep -E '^(mission |metric (mission_time_s|energy_kj|velocity_mps|cpu_util|failed_frac) )' |
  sed -E 's/ host_s=[^ ]+ flights=[^ ]+$//'
