#!/bin/sh
# Fails when a header under src/ is included only by its own .cc or
# by tests: code that no entry point (src/, examples/, bench/,
# e2e_bench/) reaches belongs next to its tests, not in src/.
#
# Usage: src_headers_reachable.sh REPO_ROOT
set -u
root=${1:?usage: $0 REPO_ROOT}
cd "$root" || exit 2
status=0
for header in $(cd src && find . -name '*.hh' | sed 's|^\./||' | sort); do
    own="src/${header%.hh}.cc"
    users=$(grep -rlF "#include \"$header\"" src examples bench e2e_bench |
            grep -vxF "$own")
    if [ -z "$users" ]; then
        echo "src/$header: included only by its own .cc or by tests"
        status=1
    fi
done
exit $status
