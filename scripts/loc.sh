#!/usr/bin/env bash
# Non-test line counts of Rust files: for each file given, the lines above
# its first `#[cfg(test)]` (the whole file when it has none), then the
# total. With `--rev REV`, also the counts at that git revision and the
# difference; a file missing on one side counts 0 there.
#
#   scripts/loc.sh crates/service/src/{service,router,shard,lib}.rs
#   scripts/loc.sh --rev HEAD~1 crates/service/src/*.rs
set -euo pipefail

usage="usage: scripts/loc.sh [--rev REV] FILE..."
rev=
if [[ ${1:-} == --rev ]]; then
  rev=${2:?$usage}
  shift 2
  git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
    echo "loc.sh: unknown revision '$rev'" >&2
    exit 2
  }
fi
(($# > 0)) || { echo "$usage" >&2; exit 2; }

# Lines above the first #[cfg(test)] on stdin.
count() { awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }'; }

root=$(git rev-parse --show-toplevel)
now_total=0
then_total=0
if [[ -n $rev ]]; then
  printf '%-48s %7s %7s %7s\n' file now "$(git rev-parse --short "$rev")" diff
fi
for file in "$@"; do
  now=0
  [[ -f $file ]] && now=$(count <"$file")
  now_total=$((now_total + now))
  if [[ -z $rev ]]; then
    printf '%-48s %7d\n' "$file" "$now"
    continue
  fi
  path=$(realpath -m --relative-to="$root" "$file")
  then_=$({ git show "$rev:$path" 2>/dev/null || true; } | count)
  then_total=$((then_total + then_))
  printf '%-48s %7d %7d %+7d\n' "$file" "$now" "$then_" $((now - then_))
done
if [[ -z $rev ]]; then
  printf '%-48s %7d\n' total "$now_total"
else
  printf '%-48s %7d %7d %+7d\n' total "$now_total" "$then_total" $((now_total - then_total))
fi
