#!/usr/bin/env bash
# Regenerates the paper-figure oracle, figures_output.txt: builds the bench
# binaries and runs every fig*/tab*/abl*/calibration bin in
# crates/bench/src/bin in `ls` order (C collation), printing each bin's name
# and then its output. calibration's host wall-clock fields are blanked to
# "(wall)", so the output depends only on the simulator and diffs exactly.
#
# Usage: scripts/figures.sh > figures_output.txt
#        scripts/figures.sh | diff -u figures_output.txt -
# Honors CARGO_TARGET_DIR. Takes about 20 s of release runs after the build.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo build -q --release --offline -p mt-bench
for src in $(LC_ALL=C ls crates/bench/src/bin | grep -E '^(fig|tab|abl|calibration)'); do
    bin="${src%.rs}"
    echo "== $bin"
    "$target/release/$bin"
done | sed -E 's/\(wall [^)]*\)/(wall)/'
