#!/bin/sh
# Public items nothing uses: every `pub` / `pub(crate)` fn, struct, enum,
# type, const, static or trait name defined under crates/*/src that
# `git grep -w` finds on one line only across tracked *.rs files
# (benchmark/, tests and examples included) — its definition. Prints
# each such line and exits 1 if there are any.
#
#   tools/unused-pub.sh
set -eu
cd "$(git rev-parse --show-toplevel)"
status=0
for name in $(git grep -hoE '\bpub(\(crate\))? (fn|struct|enum|type|const|static|trait) [A-Za-z_][A-Za-z0-9_]*' -- 'crates/*/src/*.rs' |
    sed -E 's/.* //' | sort -u); do
    hits=$(git grep -nw -e "$name" -- '*.rs')
    if [ "$(printf '%s\n' "$hits" | wc -l)" -eq 1 ]; then
        echo "unused: $hits"
        status=1
    fi
done
exit "$status"
