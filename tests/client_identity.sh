#!/usr/bin/env bash
# Prints one `program<TAB>flavor<TAB>client<TAB>sha256<TAB>counters-sha256`
# row for each of the nine built-in programs under `insens` and `2objH`, for
# the taint client (`rudoop taint --spec builtin`) and the race client
# (`rudoop races`), both with `--format json` at the standard 30M-derivation
# budget. The fourth column is the sha256 of the JSON report on stdout plus
# the exit code (the ladder table on stderr carries timings and is left
# out). The fifth is the sha256 of the `"counters"` section of the
# `--profile` written by the same run, which holds the `taint.*` and
# `races.*` counters. A change that keeps client results and counters
# byte-identical leaves the table equal to `tests/fixtures/client_sha256.tsv`:
#
#   cargo build --release
#   tests/client_identity.sh | diff tests/fixtures/client_sha256.tsv -
#
# The first argument overrides the binary (default target/release/rudoop).
set -euo pipefail
bin=${1:-target/release/rudoop}
profile=$(mktemp)
trap 'rm -f "$profile"' EXIT
for p in antlr bloat chart eclipse hsqldb jython lusearch pmd xalan; do
  for f in insens 2objH; do
    for c in taint races; do
      args=()
      if [ "$c" = taint ]; then args=(--spec builtin); fi
      out=$("$bin" "$c" "@$p" "${args[@]}" --analysis "$f" --budget 30000000 \
        --format json --profile "$profile" 2>/dev/null) && rc=0 || rc=$?
      sum=$(printf '%s\nexit %d\n' "$out" "$rc" | sha256sum | cut -d' ' -f1)
      counters=$(sed -n '/"counters": \[/,/^  \]/p' "$profile" | sha256sum | cut -d' ' -f1)
      printf '%s\t%s\t%s\t%s\t%s\n' "$p" "$f" "$c" "$sum" "$counters"
    done
  done
done
