#!/usr/bin/env bash
# Non-test line count of the two crates ROADMAP's "net LoC goes down" aim
# is measured on: for every file under crates/store/src and
# crates/protocol/src, the lines before its first `#[cfg(test)]` at the
# start of a line (the whole file when it has none), per file and summed.
# Blank lines and comments count: the number is what a reader scrolls
# through, and it is reproducible with nothing but awk.
#
#   scripts/loc.sh            # the two crates
#   scripts/loc.sh DIR...     # any other set of directories

set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -eq 0 ]; then
  set -- crates/store/src crates/protocol/src
fi

total=0
for dir in "$@"; do
  subtotal=0
  while IFS= read -r file; do
    n=$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")
    printf '%7d  %s\n' "$n" "$file"
    subtotal=$((subtotal + n))
  done < <(find "$dir" -name '*.rs' | LC_ALL=C sort)
  printf '%7d  %s (subtotal)\n' "$subtotal" "$dir"
  total=$((total + subtotal))
done
printf '%7d  total\n' "$total"
