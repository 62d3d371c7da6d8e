#!/bin/sh
# specpre-opt compiling locally and specpre-opt --connect against a live
# specpre-serve must print the same stdout and stderr and exit with the
# same code: clean compiles, a degraded compile, malformed IR and a
# --train arity mismatch.
#
# Usage: connect_identity.sh <specpre-opt> <specpre-serve> <repo root>
set -u
OPT=$1
SERVE=$2
ROOT=$3
LOOP=$ROOT/examples/programs/loop.spre
DIAMOND=$ROOT/examples/programs/diamond.spre
MALFORMED=$ROOT/tests/corpus/malformed/truncated.ir

DIR=$(mktemp -d)
SOCK=$DIR/serve.sock
"$SERVE" --socket="$SOCK" --max-requests=5 >"$DIR/serve.log" 2>&1 &
PID=$!
cleanup() {
  kill "$PID" 2>/dev/null
  wait "$PID" 2>/dev/null
  rm -rf "$DIR"
}
trap cleanup EXIT
for _ in $(seq 1 100); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
[ -S "$SOCK" ] || { echo "daemon never bound $SOCK"; exit 1; }

FAILED=0
fail() {
  echo "FAIL [$NAME]: $1"
  FAILED=1
}

# check NAME EXPECT ARGS...: runs both modes, compares the three results,
# and checks the case is what it claims to be (EXPECT is clean, degraded
# or error).
check() {
  NAME=$1
  EXPECT=$2
  shift 2
  "$OPT" "$@" >"$DIR/local.out" 2>"$DIR/local.err"
  LOCAL_RC=$?
  "$OPT" --connect="$SOCK" "$@" >"$DIR/remote.out" 2>"$DIR/remote.err"
  REMOTE_RC=$?
  [ "$LOCAL_RC" = "$REMOTE_RC" ] ||
    fail "exit code $LOCAL_RC locally, $REMOTE_RC through the daemon"
  cmp -s "$DIR/local.out" "$DIR/remote.out" || fail "stdout differs"
  cmp -s "$DIR/local.err" "$DIR/remote.err" || {
    fail "stderr differs"
    echo "--- local stderr"; cat "$DIR/local.err"
    echo "--- daemon stderr"; cat "$DIR/remote.err"
  }
  case $EXPECT in
  clean)
    [ "$LOCAL_RC" = 0 ] && [ ! -s "$DIR/local.err" ] ||
      fail "expected a clean compile" ;;
  degraded)
    [ "$LOCAL_RC" = 0 ] && grep -q 'used=none' "$DIR/local.err" ||
      fail "expected a compile degraded to the identity rung" ;;
  error)
    [ "$LOCAL_RC" = 1 ] && grep -q '^error: ' "$DIR/local.err" ||
      fail "expected exit 1 with an error diagnostic" ;;
  esac
}

check loop clean --strategy=mcssapre --train=3,4,64 "$LOOP"
check diamond clean --strategy=mcssapre --train=3,4,1 "$DIAMOND"
check degraded degraded --strategy=mcssapre --train=3,4,64 \
  --max-graph-nodes=1 "$LOOP"
check malformed-ir error --strategy=none "$MALFORMED"
check train-arity error --strategy=mcssapre --train=3,4 "$LOOP"
exit $FAILED
