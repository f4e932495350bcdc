#!/bin/sh
# Public items with no non-test user. Every `pub` / `pub(crate)` fn,
# struct, enum, type, const, static or trait defined under crates/*/src
# (outside test code) fails unless some line of a tracked *.rs file uses
# it, that line is not a comment, and it is not test code: a `tests/`
# directory (crates/*/tests, benchmark/tests, the root tests/) or a line
# below its file's first `#[cfg(test)]`. A fn is used where a line calls
# it or names it by path (`name(`, `::name`, `name::<`) other than as the
# name a `fn` defines; any other item where a line other than its
# definition names it as a whole word. A `use` declaration (all of its
# lines) and the self type of an `impl` line are not uses. benchmark/,
# examples and binaries count as users. Items that share a name are
# judged together.
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
run_until          ROADMAP "One transport seam": SimConn delivers on the Scheduler's run loop
socket             ROADMAP "One transport seam": FrameClient's conn, whose timeouts the Conn trait carries
rules              ROADMAP "The product, scored against ground truth": the scorer reads the policy's targets
mode               ROADMAP "A paper-claims gate": the extension rows read the fingerprint modes
EOF
)

status=0
report=$(git grep -n -e '' -- '*.rs' | awk -v allow="$allow" '
    {
        file = $0; sub(/:.*/, "", file)
        text = substr($0, length(file) + 2); sub(/^[0-9]*:/, "", text)
    }
    file != last { last = file; cut = 0; inuse = 0 }
    text ~ /^#\[cfg\(test\)\]/ { cut = 1 }
    text ~ /^[[:space:]]*\/\// { next }
    # A `use` declaration imports a name; it does not use it.
    text ~ /^[[:space:]]*(pub(\([a-z]+\))? )?use / { inuse = 1 }
    inuse { if (text ~ /;/) inuse = 0; next }
    {
        test = file ~ /(^|\/)tests\// || cut
        def = ""
        if (!test && file ~ /^crates\/[^\/]+\/src\// &&
            match(text, /pub(\(crate\))? (const fn|fn|struct|enum|type|const|static|trait) [A-Za-z_][A-Za-z0-9_]*/)) {
            def = substr(text, RSTART, RLENGTH)
            kind = def
            sub(/.* /, "", def)
            if (kind ~ / fn [^ ]*$/)
                isfn[def] = 1
            defs[def] = defs[def] $0 "\n"
        }
        if (test)
            next
        # Nor does an `impl` line use the type it implements for.
        self = ""
        if (text ~ /^[[:space:]]*(unsafe )?impl[<[:space:]]/) {
            self = text
            if (!sub(/.* for /, "", self)) {
                sub(/^[[:space:]]*(unsafe )?impl(<[^>]*>)?[[:space:]]*(dyn )?/, "", self)
            }
            sub(/[^A-Za-z0-9_:].*/, "", self)
            sub(/.*::/, "", self)
        }
        n = split(text, word, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++)
            if (word[i] != def && word[i] != self)
                named[word[i]] = 1
        # A fn is used where it is called or named by path: `name(`,
        # `::name` or `name::<`, but never as the name a `fn` defines.
        rest = text
        gsub(/(^|[^A-Za-z0-9_])fn [A-Za-z_][A-Za-z0-9_]*/, " fn", rest)
        while (match(rest, /::[A-Za-z_][A-Za-z0-9_]*|[A-Za-z_][A-Za-z0-9_]*(\(|::<)/)) {
            hit = substr(rest, RSTART, RLENGTH)
            rest = substr(rest, RSTART + RLENGTH)
            gsub(/[^A-Za-z0-9_]/, "", hit)
            called[hit] = 1
        }
    }
    END {
        for (name in defs)
            used[name] = (name in isfn) ? (name in called) : (name in named)
        n = split(allow, line, "\n")
        for (i = 1; i <= n; i++) {
            name = line[i]
            sub(/[[:space:]].*/, "", name)
            listed[name] = 1
            if (!(name in defs) || used[name]) {
                print "stale allowlist entry: " name
                status = 1
            }
        }
        for (name in defs)
            if (!used[name] && !(name in listed)) {
                printf "no non-test user: %s", defs[name]
                status = 1
            }
        exit status
    }') || status=1
[ -z "$report" ] || printf '%s\n' "$report" | sort
exit "$status"
