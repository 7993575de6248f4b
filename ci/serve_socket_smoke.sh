#!/usr/bin/env bash
# Socket-transport smoke for decycle_serve. Starts the daemon on a temporary
# AF_UNIX socket and checks that:
#   * the seeded closed-loop loadgen workload prints the same
#     loadgen_aggregate line over the socket as in-process;
#   * a garbled frame gets one ERROR bad_frame reply before the daemon
#     closes that connection;
#   * a client that pipelines requests and never reads its replies does not
#     stall the daemon for another client;
#   * `shutdown` makes the daemon exit 0.
#
# Usage: ci/serve_socket_smoke.sh <build-dir>
set -euo pipefail
BUILD_DIR="${1:?usage: serve_socket_smoke.sh <build-dir>}"
WORK="$(mktemp -d)"
SOCK="${WORK}/decycle.sock"
"${BUILD_DIR}/decycle_serve" --socket="${SOCK}" --workers=4 2>"${WORK}/serve.log" &
DAEMON=$!
trap 'kill "${DAEMON}" 2>/dev/null || true; rm -rf "${WORK}"' EXIT
for _ in $(seq 100); do
  [ -S "${SOCK}" ] && break
  sleep 0.1
done
[ -S "${SOCK}" ] || { echo "decycle_serve never opened ${SOCK}"; cat "${WORK}/serve.log"; exit 1; }

WORKLOAD="--tenants=6 --threads=4 --ops=32 --seed=11"
# shellcheck disable=SC2086
"${BUILD_DIR}/decycle_loadgen" --socket="${SOCK}" ${WORKLOAD} | grep loadgen_aggregate >"${WORK}/socket.txt"
# shellcheck disable=SC2086
"${BUILD_DIR}/decycle_loadgen" --in-process ${WORKLOAD} | grep loadgen_aggregate >"${WORK}/inproc.txt"
diff "${WORK}/inproc.txt" "${WORK}/socket.txt"
cat "${WORK}/socket.txt"

python3 - "${SOCK}" <<'PY'
import socket, sys
s = socket.socket(socket.AF_UNIX)
s.connect(sys.argv[1])
s.sendall(b"zz stats\n")
reply = b""
while chunk := s.recv(4096):
    reply += chunk
print(reply.decode().strip())
assert b"ERROR bad_frame" in reply, reply

hog = socket.socket(socket.AF_UNIX)
hog.connect(sys.argv[1])
hog.setblocking(False)
pipelined = 0
try:
    while True:
        hog.send(b"5 stats\n")
        pipelined += 1
except BlockingIOError:
    pass
other = socket.socket(socket.AF_UNIX)
other.settimeout(10)
other.connect(sys.argv[1])
other.sendall(b"5 stats\n")
reply = other.recv(64)
assert b" OK stats" in reply, reply
print(f"another client got its stats reply while one pipelined {pipelined} unread requests")
PY

"${BUILD_DIR}/decycle_loadgen" --socket="${SOCK}" --shutdown
wait "${DAEMON}"
echo "decycle_serve exited 0"
