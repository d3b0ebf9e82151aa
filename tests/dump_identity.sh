#!/usr/bin/env bash
# Prints one `program<TAB>flavor<TAB>sha256<TAB>counters-sha256` row for
# each of the nine built-in programs under six flavors. The third column is
# the sha256 of `rudoop --dump` at the standard 30M-derivation budget
# (stdout and stderr, plus the exit code), with the `... in N.NNs, ...`
# timing line dropped. The fourth is the sha256 of the `"counters"` section
# of the `--profile` written by the same run: the deterministic counter
# stream. A change that keeps results and counters byte-identical leaves the
# table equal to `tests/fixtures/dump_sha256.tsv`:
#
#   cargo build --release
#   tests/dump_identity.sh | diff tests/fixtures/dump_sha256.tsv -
#
# The first argument overrides the binary (default target/release/rudoop).
set -euo pipefail
bin=${1:-target/release/rudoop}
profile=$(mktemp)
trap 'rm -f "$profile"' EXIT
flavors=("insens" "2objH" "2objH --introspective A" "2objH --introspective B" "cutshortcut" "summaries")
for p in antlr bloat chart eclipse hsqldb jython lusearch pmd xalan; do
  for f in "${flavors[@]}"; do
    # shellcheck disable=SC2086 # the flavor carries its own flags
    out=$("$bin" "@$p" --analysis $f --budget 30000000 --dump --profile "$profile" 2>&1) && rc=0 || rc=$?
    sum=$(printf '%s\nexit %d\n' "$out" "$rc" | grep -Ev ' in [0-9]+\.[0-9]+s, ' | sha256sum | cut -d' ' -f1)
    counters=$(sed -n '/"counters": \[/,/^  \]/p' "$profile" | sha256sum | cut -d' ' -f1)
    printf '%s\t%s\t%s\t%s\n' "$p" "$f" "$sum" "$counters"
  done
done
