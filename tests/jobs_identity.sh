#!/bin/sh
# specpre-opt --jobs=1 and --jobs=4 must print the same stdout and
# stderr, exit with the same code and, when the run writes --metrics-out,
# report the same per-step invocation counts. The modules are built here
# by concatenating existing example files, so the pool has functions to
# fan out over:
#   two    loop.spre + diamond.spre (both take 3 parameters): a clean
#          two-function compile;
#   stop   the same plus a 4-parameter function last, which fails the
#          --train arity check: the functions before it are emitted,
#          then the request stops with exit 1.
#
# Usage: jobs_identity.sh <specpre-opt> <repo root>
set -u
OPT=$1
ROOT=$2
EXAMPLES=$ROOT/examples/programs

DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT
cat "$EXAMPLES/loop.spre" "$EXAMPLES/diamond.spre" >"$DIR/two.spre"
cat "$DIR/two.spre" "$ROOT/tests/corpus/critical-edge-weight.ir" \
  >"$DIR/stop.spre"

FAILED=0
fail() {
  echo "FAIL [$NAME]: $1"
  FAILED=1
}

# run JOBS MODULE: leaves jobsJOBS.{out,err,rc,counts} in $DIR.
run() {
  P=$DIR/jobs$1
  rm -f "$P.json"
  "$OPT" --strategy=mcssapre --train=3,4,64 --jobs="$1" \
    --metrics-out="$P.json" "$2" >"$P.out" 2>"$P.err"
  echo $? >"$P.rc"
  if [ -f "$P.json" ]; then
    grep -o '"step": "[a-z-]*", "invocations": [0-9]*' "$P.json" \
      >"$P.counts"
  else
    echo "no metrics written" >"$P.counts"
  fi
}

# check NAME EXPECTED_RC FUNCTIONS_EMITTED
check() {
  NAME=$1
  run 1 "$DIR/$NAME.spre"
  run 4 "$DIR/$NAME.spre"
  for Part in out err rc counts; do
    cmp -s "$DIR/jobs1.$Part" "$DIR/jobs4.$Part" || {
      fail "$Part differs between --jobs=1 and --jobs=4"
      diff "$DIR/jobs1.$Part" "$DIR/jobs4.$Part"
    }
  done
  [ "$(cat "$DIR/jobs1.rc")" = "$2" ] ||
    fail "exit code $(cat "$DIR/jobs1.rc"), expected $2"
  [ "$(grep -c '^func ' "$DIR/jobs1.out")" = "$3" ] ||
    fail "expected $3 functions on stdout"
}

check two 0 2
grep -q '"invocations": [1-9]' "$DIR/jobs1.counts" ||
  fail "the clean run reported no step invocations"
check stop 1 2
grep -q "^error: function 'f' takes 4 arguments" "$DIR/jobs1.err" ||
  fail "expected the --train arity error for the last function"
exit $FAILED
