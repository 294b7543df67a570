#!/bin/sh
# flake: a census of tests whose verdict moves with wall-clock interleaving.
# Runs `go test -json -count=COUNT PKGS` once on an idle host and once
# beside BUSY busy-loop processes (capped at nproc, killed on exit), and
# writes one JSONL line per test and mode with its run and failure counts
# (scripts/flakecount) to OUT. It reports and gates nothing: the exit status
# is 0 whatever the tests do. `make flake` runs it; `make ci` does not.
#
#	COUNT=300 PKGS=./internal/cache BUSY=2 OUT=FLAKE.jsonl sh scripts/flake.sh
set -u

GO=${GO:-go}
COUNT=${COUNT:-20}
PKGS=${PKGS:-./...}
BUSY=${BUSY:-2}
OUT=${OUT:-FLAKE.jsonl}

n=$(nproc)
[ "$BUSY" -gt "$n" ] && BUSY=$n
PIDS=
cleanup() {
	[ -n "$PIDS" ] && kill $PIDS 2>/dev/null
	wait 2>/dev/null
}
trap cleanup EXIT
trap 'exit 130' INT TERM

$GO build -o bin/flakecount ./scripts/flakecount || exit 1
: >"$OUT"
# shellcheck disable=SC2086 # PKGS is a package list
$GO test -json -count="$COUNT" $PKGS | bin/flakecount -mode idle >>"$OUT"
i=0
while [ "$i" -lt "$BUSY" ]; do
	sh -c 'while :; do :; done' &
	PIDS="$PIDS $!"
	i=$((i + 1))
done
# shellcheck disable=SC2086
$GO test -json -count="$COUNT" $PKGS | bin/flakecount -mode busy="$BUSY" >>"$OUT"
echo "flake: $(grep -c '"fails":[1-9]' "$OUT") test(s) with failures -> $OUT"
exit 0
