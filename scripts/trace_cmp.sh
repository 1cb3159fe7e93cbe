#!/usr/bin/env bash
# Byte-compares the trace documents of a base revision and of this checkout.
#
# Builds trace_export at BASE in a temporary git worktree and in the working
# tree, has each build write
#   trace_mono_40.json, trace_mono_40_faults.json    --machines 40 --points 0,1
#   trace_mono_100.json, trace_mono_100_faults.json  --machines 100 --points 0,1
#   trace_spark_100.json                             --engine spark --machines 100
# and prints `same` or `DIFF` per file. Exits 1 if any file differs.
#
# Usage: scripts/trace_cmp.sh BASE [OUTDIR]
#   BASE: any git revision. OUTDIR keeps the documents, in OUTDIR/base and
#   OUTDIR/head; without it they go to a temporary directory removed on exit.
# Example: scripts/trace_cmp.sh HEAD~1
set -euo pipefail
cd "$(dirname "$0")/.."
[ $# -ge 1 ] && [ $# -le 2 ] || { sed -n '2,15p' "$0" >&2; exit 2; }
base=$(git rev-parse --verify "$1^{commit}")
tmp=$(mktemp -d)
cleanup() {
    git worktree remove --force "$tmp/src" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT
out=${2:-$tmp/out}
git worktree add --quiet --detach "$tmp/src" "$base"

build() { # build SRC TARGET_DIR -> builds SRC's trace_export into TARGET_DIR
    CARGO_TARGET_DIR=$2 cargo build --quiet --release \
        --manifest-path "$1/Cargo.toml" -p mt-bench --bin trace_export
}

write() { # write TRACE_EXPORT DIR
    mkdir -p "$2"
    "$1" --machines 40 --points 0,1 --out "$2/trace_mono_40.json" >/dev/null
    "$1" --machines 100 --points 0,1 --out "$2/trace_mono_100.json" >/dev/null
    "$1" --engine spark --machines 100 --out "$2/trace_spark_100.json" >/dev/null
}

head_target=${CARGO_TARGET_DIR:-$PWD/target}
build "$tmp/src" "$tmp/target"
build "$PWD" "$head_target"
write "$tmp/target/release/trace_export" "$out/base"
write "$head_target/release/trace_export" "$out/head"

status=0
for f in trace_mono_40.json trace_mono_40_faults.json \
    trace_mono_100.json trace_mono_100_faults.json trace_spark_100.json; do
    if cmp -s "$out/base/$f" "$out/head/$f"; then
        echo "same $f"
    else
        echo "DIFF $f"
        status=1
    fi
done
exit $status
