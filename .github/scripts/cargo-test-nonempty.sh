#!/usr/bin/env bash
# Run `cargo test` with the given arguments, and fail unless some test
# target reports at least one passing test. Cargo exits 0 when a name
# filter matches no test, so a step that names a deleted or renamed
# test would otherwise pass while checking nothing.
#
#   .github/scripts/cargo-test-nonempty.sh --release -p simnet parallel
set -euo pipefail
log=$(mktemp)
trap 'rm -f "$log"' EXIT
cargo test "$@" 2>&1 | tee "$log"
if ! sed 's/\x1b\[[0-9;]*m//g' "$log" | grep -Eq '^test result: ok\. [1-9][0-9]* passed'; then
  echo "error: 'cargo test $*' ran no test" >&2
  exit 1
fi
