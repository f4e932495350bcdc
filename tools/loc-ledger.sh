#!/bin/sh
# The consolidation ledger's line count: non-blank, non-comment lines
# above each file's first `#[cfg(test)]`, over tracked files only.
#
#   tools/loc-ledger.sh [-v] [pathspec...]
#
# Default pathspec: 'crates/*/src/*.rs' 'src/*.rs' (git pathspecs: `*`
# crosses directories). `-v` also prints the count per file.
set -eu
verbose=0
if [ "${1:-}" = "-v" ]; then
    verbose=1
    shift
fi
[ "$#" -gt 0 ] || set -- 'crates/*/src/*.rs' 'src/*.rs'
cd "$(git rev-parse --show-toplevel)"
total=0
for f in $(git ls-files -- "$@" | sort -u); do
    n=$(awk '/^#\[cfg\(test\)\]/{exit} !/^[[:space:]]*(\/\/|$)/' "$f" | wc -l)
    [ "$verbose" -eq 0 ] || printf '%6d %s\n' "$n" "$f"
    total=$((total + n))
done
echo "$total"
