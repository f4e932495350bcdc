#!/bin/sh
# Public items with no non-test user. Every `pub` / `pub(crate)` fn,
# struct, enum, type, const, static or trait defined under crates/*/src
# (outside test code) fails unless some line of a tracked *.rs file other
# than its definition names it (as a whole word), that line is not a
# comment, and it is not test code: a `tests/` directory (crates/*/tests,
# benchmark/tests, the root tests/) or a line below its file's first
# `#[cfg(test)]`. benchmark/, examples and binaries count as users. Items
# that share a name are judged together.
#
# A name in the allowlist below fails the other way round: when it has a
# non-test user, or is no longer defined, the entry is stale. Prints one
# line per failure and exits 1 if there are any.
#
#   tools/unused-pub.sh
set -eu
cd "$(git rev-parse --show-toplevel)"

# One line per name: the name, then why it may lack a non-test caller
# today — the open ROADMAP item that adds the caller, the DESIGN.md row
# of a paper mechanism no driver runs yet, or the frozen benchmark/.
allow=$(
    cat <<'EOF'
audit_and_revoke   ROADMAP "A stated bound on verdict integrity": the adversary harness runs the audit
recent_frames      ROADMAP "Carry the trace across the wire and give the server a voice": STATS serves them
idle_connections   ROADMAP "The socket under load and under attack": the pool's idle count
with_read_timeout  ROADMAP "The socket under load and under attack": the per-call timeout
with_max_idle      ROADMAP "The socket under load and under attack": the idle-pool cap
set_action         ROADMAP "One fetch, two worlds": the differential test drives the middlebox
default_set        DESIGN.md §5 collector row: no driver posts through collectors yet
set_reachable      DESIGN.md §5 collector row: no driver posts through collectors yet
post_reports_via   DESIGN.md §5 collector row: no driver posts through collectors yet
as_arr             benchmark/tests/benchmark_json.rs (frozen) reads BENCHMARK.json with it
EOF
)

status=0
report=$(git grep -n -e '' -- '*.rs' | awk -v allow="$allow" '
    {
        file = $0; sub(/:.*/, "", file)
        text = substr($0, length(file) + 2); sub(/^[0-9]*:/, "", text)
    }
    file != last { last = file; cut = 0 }
    text ~ /^#\[cfg\(test\)\]/ { cut = 1 }
    text ~ /^[[:space:]]*\/\// { next }
    {
        test = file ~ /(^|\/)tests\// || cut
        def = ""
        if (!test && file ~ /^crates\/[^\/]+\/src\// &&
            match(text, /pub(\(crate\))? (const fn|fn|struct|enum|type|const|static|trait) [A-Za-z_][A-Za-z0-9_]*/)) {
            def = substr(text, RSTART, RLENGTH)
            sub(/.* /, "", def)
            defs[def] = defs[def] $0 "\n"
        }
        if (test)
            next
        n = split(text, word, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++)
            if (word[i] != def)
                used[word[i]] = 1
    }
    END {
        n = split(allow, line, "\n")
        for (i = 1; i <= n; i++) {
            name = line[i]
            sub(/[[:space:]].*/, "", name)
            listed[name] = 1
            if (!(name in defs) || (name in used)) {
                print "stale allowlist entry: " name
                status = 1
            }
        }
        for (name in defs)
            if (!(name in used) && !(name in listed)) {
                printf "no non-test user: %s", defs[name]
                status = 1
            }
        exit status
    }') || status=1
[ -z "$report" ] || printf '%s\n' "$report" | sort
exit "$status"
