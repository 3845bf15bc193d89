#!/usr/bin/env bash
# Five-fault serve soak: dynsched_server under every serve-path fault kind
# at once (accept-fail, short-read, short-write, force-shed, worker-stall)
# and a 6-request dynsched_client against it. Passes when the server log
# shows the three transport faults fired, the client answers every request
# (exit 0) and the SIGTERM drain exits 0. It checks survival only: with
# --retries 6 the client may recover a torn connection by its free redial
# or by a retry from its budget alike (ServeSocket.AClosedKept* pins the
# redial rule itself).
#
# Usage: scripts/serve_soak.sh TOOLS_DIR
#   TOOLS_DIR holds the dynsched_server and dynsched_client binaries,
#   e.g. build/tools.
set -euo pipefail

TOOLS="${1:?usage: scripts/serve_soak.sh TOOLS_DIR}"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT
SOCK="$DIR/soak.sock"

DYNSCHED_FAULTS="accept-fail=1,short-read=2,short-write=4,force-shed=2,worker-stall=3" \
  "$TOOLS/dynsched_server" --socket "$SOCK" --journal "$DIR/soak.journal" \
  2> "$DIR/server.log" &
SERVER_PID=$!

rc=0
timeout 300 "$TOOLS/dynsched_client" --socket "$SOCK" --count 6 --seed 7 \
    --max-nodes 300 --retries 6 --timeout-ms 60000 > /dev/null \
  || { echo "serve soak: the client left requests unanswered" >&2; rc=1; }
kill -TERM "$SERVER_PID" 2> /dev/null || true
drain=0
wait "$SERVER_PID" || drain=$?
if [[ "$drain" -ne 0 ]]; then
  echo "serve soak: the drain exited $drain, not 0" >&2
  rc=1
fi
for fault in "injected accept failure" "injected short read" \
    "injected short write"; do
  grep -q "$fault" "$DIR/server.log" \
    || { echo "serve soak: no \"$fault\" in the server log" >&2; rc=1; }
done
if [[ "$rc" -ne 0 ]]; then cat "$DIR/server.log" >&2; fi
exit "$rc"
