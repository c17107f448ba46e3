#!/bin/sh
# Multi-process smoke test for the real TCP transport: boot two ps2serve
# processes on loopback, train a bounded LR run with ps2worker, and assert
# (a) the loss trajectory matches the in-process simnet reference arm,
# (b) the final loss converged below a fixed bound and (c) no frame was sent
# twice. Exercises the whole
# wire stack — frame codec, connection pooling, dedup/watermark, retry —
# across real process boundaries, which no in-process test can.
set -eu

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'kill $S1 $S2 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/ps2serve" ./cmd/ps2serve
go build -o "$workdir/ps2worker" ./cmd/ps2worker

pick_addr() {
	# Fixed loopback ports clash on busy CI boxes; let the kernel pick and
	# read the bound address off ps2serve's banner line.
	log="$1"
	for _ in $(seq 1 50); do
		addr=$(sed -n 's/^ps2serve listening on //p' "$log" 2>/dev/null | head -1)
		[ -n "$addr" ] && { echo "$addr"; return 0; }
		sleep 0.1
	done
	echo "ps2serve never reported its address" >&2
	return 1
}

"$workdir/ps2serve" -addr 127.0.0.1:0 > "$workdir/s1.log" 2>&1 &
S1=$!
"$workdir/ps2serve" -addr 127.0.0.1:0 > "$workdir/s2.log" 2>&1 &
S2=$!

A1=$(pick_addr "$workdir/s1.log")
A2=$(pick_addr "$workdir/s2.log")

if ! "$workdir/ps2worker" \
	-servers "$A1,$A2" \
	-iters 15 -batch 256 -rows 2000 -dim 5000 \
	-compare-simnet -assert-loss 0.62 > "$workdir/worker.log" 2>&1; then
	cat "$workdir/worker.log"
	exit 1
fi
cat "$workdir/worker.log"

# On a clean run every frame goes out once: a pipeline that resends on the
# happy path still trains the same model, so only the counters show it.
rpc=$(sed -n 's/^rpc: \([0-9]*\) calls (\([0-9]*\) attempts, \([0-9]*\) timeouts).*/\1 \2 \3/p' "$workdir/worker.log")
set -- $rpc
if [ $# -ne 3 ] || [ "$1" != "$2" ] || [ "$3" != 0 ]; then
	echo "wire smoke: want 'N calls (N attempts, 0 timeouts)', got: $rpc" >&2
	exit 1
fi

echo "wire smoke: multi-process LR converged, matched the simnet trajectory and resent nothing"
