#!/bin/sh
# Public items only tests use: every `pub` / `pub(crate)` fn, struct,
# enum, type, const, static or trait name defined under crates/*/src
# whose other lines in tracked *.rs files (`git grep -w`, comment lines
# skipped; benchmark/ and examples count as users) are all test code:
# a `tests/` directory (crates/*/tests, the root tests/) or a line below
# its file's first `#[cfg(test)]`. Prints each such definition and the
# number of test lines naming it. Informational: always exits 0.
#
#   tools/test-only-pub.sh
set -eu
cd "$(git rev-parse --show-toplevel)"
# "file:line" of each tracked file's first `#[cfg(test)]`, one a line.
cuts=$(git grep -n -m1 '^#\[cfg(test)\]' -- '*.rs' | cut -d: -f1,2)
for name in $(git grep -hoE '\bpub(\(crate\))? (fn|struct|enum|type|const|static|trait) [A-Za-z_][A-Za-z0-9_]*' -- 'crates/*/src/*.rs' |
    sed -E 's/.* //' | sort -u); do
    git grep -nw -e "$name" -- '*.rs' | awk -v name="$name" -v cuts="$cuts" '
        BEGIN {
            n = split(cuts, c, "\n")
            for (i = 1; i <= n; i++) {
                split(c[i], fl, ":")
                cut[fl[1]] = fl[2]
            }
            item = "pub(\\(crate\\))? (fn|struct|enum|type|const|static|trait) " name "([^A-Za-z0-9_]|$)"
        }
        {
            file = $0; sub(/:.*/, "", file)
            rest = substr($0, length(file) + 2)
            line = rest; sub(/:.*/, "", line)
            text = substr(rest, length(line) + 2)
            in_test = file ~ /(^|\/)tests\// || (file in cut && line + 0 > cut[file] + 0)
            if (text ~ item && file ~ /^crates\/[^\/]+\/src\// && !in_test) {
                defs = defs $0 "\n"
            } else if (text ~ /^[[:space:]]*\/\//) {
                next
            } else if (in_test) {
                tests++
            } else {
                users++
            }
        }
        END {
            if (defs != "" && tests > 0 && users == 0)
                printf "test-only (%d test lines): %s", tests, defs
        }'
done
