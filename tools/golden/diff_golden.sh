#!/usr/bin/env bash
# Runs one golden command and diffs its output against the committed file.
# Usage: diff_golden.sh <golden file> <binary> [args...]
# Exits non-zero when the command fails or its output differs by one byte.
set -u -o pipefail
golden="$1"
shift
out="$(mktemp)"
trap 'rm -f "${out}"' EXIT
"$@" >"${out}" || { echo "golden command failed: $*" >&2; exit 1; }
diff -u "${golden}" "${out}"
