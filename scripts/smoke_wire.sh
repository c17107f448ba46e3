#!/bin/sh
# Multi-process smoke test for the real TCP transport: boot two ps2serve
# processes on loopback, train a bounded LR run with ps2worker, and assert
# (a) the loss trajectory matches the in-process simnet reference arm,
# (b) the final loss converged below a fixed bound and (c) no frame was sent
# twice. Then a one-server arm whose weight row stays sparse, so its final
# pull takes the sparse range layout, must match the simnet arm as well, and
# a one-server arm with a 4 M-wide row must leave the server's peak resident
# set below that of one dense row, and its worker must report its own peak.
# Exercises the whole wire stack — frame codec, connection pooling,
# dedup/watermark, retry — across real process boundaries, which no
# in-process test can.
set -eu

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
S3=
S4=
trap 'kill $S1 $S2 $S3 $S4 2>/dev/null || true; rm -rf "$workdir"' EXIT

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

# One server, a 400 k-wide row and 5 steps of 64 rows: the support stays far
# below width/16, so the final pull ships (column, value) pairs instead of
# the row's 3.2 MB. The loss computed from the pulled weights must still
# match the simnet arm, and the whole run must move less than the dense row
# alone would.
"$workdir/ps2serve" -addr 127.0.0.1:0 > "$workdir/s3.log" 2>&1 &
S3=$!
A3=$(pick_addr "$workdir/s3.log")
if ! "$workdir/ps2worker" \
	-servers "$A3" \
	-iters 5 -batch 64 -dim 400000 \
	-compare-simnet > "$workdir/sparse.log" 2>&1; then
	cat "$workdir/sparse.log"
	exit 1
fi
cat "$workdir/sparse.log"
mb=$(sed -n 's/^rpc: .* calls (.*), \([0-9.]*\) MB moved.*/\1/p' "$workdir/sparse.log")
if [ -z "$mb" ] || ! awk -v mb="$mb" 'BEGIN { exit !(mb < 3.2) }'; then
	echo "wire smoke: the sparse arm moved '$mb' MB, want less than the 3.2 MB of its dense row" >&2
	exit 1
fi

echo "wire smoke: the one-server arm's final pull shipped the row's support and matched the simnet trajectory"

# One server, a 4 M-wide row and 5 steps: the rows stay compact, so the
# server never holds one dense row's 32 MB. ps2serve prints its peak
# resident set (VmHWM) in its last line once stopped; where /proc gives it
# none, the arm checks nothing. ps2worker ends its rpc: line with its own
# peak, which the arm requires to be there (it bounds nothing).
"$workdir/ps2serve" -addr 127.0.0.1:0 > "$workdir/s4.log" 2>&1 &
S4=$!
A4=$(pick_addr "$workdir/s4.log")
if ! "$workdir/ps2worker" \
	-servers "$A4" \
	-iters 5 -batch 64 -dim 4000000 > "$workdir/wide.log" 2>&1; then
	cat "$workdir/wide.log"
	exit 1
fi
cat "$workdir/wide.log"
wkb=$(sed -n 's/^rpc: .*, VmHWM \([0-9]*\) kB$/\1/p' "$workdir/wide.log")
if [ -z "$wkb" ]; then
	echo "wire smoke: the 4 M-wide arm's worker printed no VmHWM on its rpc: line" >&2
	exit 1
fi
kill -TERM $S4
wait $S4 || true
S4=
tail -1 "$workdir/s4.log"
kb=$(sed -n 's/^ps2serve served .*, VmHWM \([0-9]*\) kB$/\1/p' "$workdir/s4.log")
if [ -n "$kb" ] && ! [ "$kb" -lt 31250 ]; then
	echo "wire smoke: the 4 M-wide arm's server peaked at $kb kB, want below one dense row's 31250 kB" >&2
	exit 1
fi

echo "wire smoke: the 4 M-wide arm's server stayed below one dense row (VmHWM ${kb:-unknown} kB; worker ${wkb} kB)"
