#!/usr/bin/env bash
# Net lines of code a change adds, per area.
#
#   scripts/net_loc.sh <base>
#
# Diffs <base> (any commit-ish) against the working tree and prints
# added, removed and net lines for src, bench, tools, examples, tests
# and CMake, then the src+bench+tools subtotal and the total over all
# six. Every line counts: code, comments and blanks. CMake means every
# CMakeLists.txt and *.cmake file, wherever it lives; those files are
# not counted again under their directory. Files outside the six
# areas (docs, scripts, CI) are not counted. New files count once they
# are tracked (git add).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
    echo "usage: $0 <base>" >&2
    exit 2
fi

git diff --numstat "$1" -- | awk -F'\t' '
    $1 == "-" { next }                       # binary file
    {
        path = $3
        # Renames print as "dir/{old => new}" or "old => new".
        if (path ~ / => /) {
            sub(/\{[^}]* => /, "", path)
            sub(/\}/, "", path)
            sub(/^.* => /, "", path)
        }
        n = split(path, parts, "/")
        if (parts[n] == "CMakeLists.txt" || path ~ /\.cmake$/)
            area = "cmake"
        else
            area = parts[1]
        add[area] += $1
        del[area] += $2
    }
    END {
        split("src bench tools examples tests cmake", areas, " ")
        printf "%-16s %8s %8s %8s\n", "area", "added", "removed", "net"
        for (i = 1; i <= 6; ++i) {
            a = areas[i]
            printf "%-16s %8d %8d %+8d\n", a, add[a], del[a],
                   add[a] - del[a]
            ta += add[a]; td += del[a]
            if (a == "src" || a == "bench" || a == "tools") {
                sa += add[a]; sd += del[a]
            }
        }
        printf "%-16s %8d %8d %+8d\n", "src+bench+tools", sa, sd, sa - sd
        printf "%-16s %8d %8d %+8d\n", "total", ta, td, ta - td
    }'
