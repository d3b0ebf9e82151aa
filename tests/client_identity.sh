#!/usr/bin/env bash
# Prints one `program<TAB>flavor<TAB>client<TAB>sha256<TAB>counters-sha256`
# row for each of the nine built-in programs under `insens` and `2objH`, for
# the taint client (`rudoop taint --spec builtin`) and the race client
# (`rudoop races`), both with `--format json` at the standard 30M-derivation
# budget. Two more rows run jython `2objH` with no budget, where the fact
# index meets its largest points-to sets; their flavor column reads
# `2objH/unbudgeted`. Eighteen lint rows follow: `rudoop-lint` (found beside
# the `rudoop` binary) on the nine programs under `insens` and `2objH` with
# `--taint-spec builtin --races --format json`, unbudgeted since
# `rudoop-lint` has no budget; their client column reads `lint`. The fourth
# column is the sha256 of the JSON report on stdout plus the exit code (the
# ladder table on stderr carries timings and is left out). The fifth is the
# sha256 of the `"counters"` section of the `--profile` written by the same
# run, which holds the `taint.*`, `races.*` and `lint.<code>.findings`
# counters. A change that keeps client results and counters
# byte-identical leaves the table equal to `tests/fixtures/client_sha256.tsv`:
#
#   cargo build --release
#   tests/client_identity.sh | diff tests/fixtures/client_sha256.tsv -
#
# The first argument overrides the binary (default target/release/rudoop).
set -euo pipefail
bin=${1:-target/release/rudoop}
lint=$(dirname "$bin")/rudoop-lint
profile=$(mktemp)
trap 'rm -f "$profile"' EXIT

# row <program> <flavor> <client> <label> [budget args...]
row() {
  local p=$1 f=$2 c=$3 label=$4
  shift 4
  local cmd=("$bin" "$c" "@$p" "$@")
  case $c in
    taint) cmd+=(--spec builtin) ;;
    lint) cmd=("$lint" "@$p" --taint-spec builtin --races) ;;
  esac
  local out rc sum counters
  out=$("${cmd[@]}" --analysis "$f" \
    --format json --profile "$profile" 2>/dev/null) && rc=0 || rc=$?
  sum=$(printf '%s\nexit %d\n' "$out" "$rc" | sha256sum | cut -d' ' -f1)
  counters=$(sed -n '/"counters": \[/,/^  \]/p' "$profile" | sha256sum | cut -d' ' -f1)
  printf '%s\t%s\t%s\t%s\t%s\n' "$p" "$label" "$c" "$sum" "$counters"
}

for p in antlr bloat chart eclipse hsqldb jython lusearch pmd xalan; do
  for f in insens 2objH; do
    for c in taint races; do
      row "$p" "$f" "$c" "$f" --budget 30000000
    done
  done
done
for c in taint races; do
  row jython 2objH "$c" 2objH/unbudgeted
done
for p in antlr bloat chart eclipse hsqldb jython lusearch pmd xalan; do
  for f in insens 2objH; do
    row "$p" "$f" lint "$f"
  done
done
