#!/usr/bin/env bash
# CI smoke for the serving daemon: start `dynfo serve` in the
# background, drive the whole protocol surface over one connection
# (create, batched update, query, snapshot, restore, stats, list),
# then load-generate every backend with an offline --verify replay,
# check that two sessions loaded at once each report their solo work,
# and finally assert the daemon shuts down cleanly and unlinks its
# socket. Uses the already-built binary so concurrent invocations do
# not fight over the dune build lock; override with DYNFO=... .
set -euo pipefail
cd "$(dirname "$0")/.."

DYNFO=${DYNFO:-_build/install/default/bin/dynfo_cli}
TMP=$(mktemp -d)
SOCK="$TMP/serve.sock"
SNAP="$TMP/smoke.snap"
LOG="$TMP/serve.log"
SERVE_PID=

cleanup() {
  [[ -n "$SERVE_PID" ]] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

"$DYNFO" serve --socket "$SOCK" >"$LOG" 2>&1 &
SERVE_PID=$!

for _ in $(seq 1 100); do [[ -S "$SOCK" ]] && break; sleep 0.1; done
[[ -S "$SOCK" ]] || {
  echo "serve_smoke: daemon never bound $SOCK" >&2
  cat "$LOG" >&2
  exit 1
}

# The whole session lifecycle over one connection. A multi-element reqs
# array is one evaluation tick; the restored session must answer like
# the original.
RESP=$("$DYNFO" client --socket "$SOCK" <<EOF
{"id":1,"op":"create","session":"smoke","program":"reach_u","size":8,"backend":"delta"}
{"id":2,"op":"update","session":"smoke","reqs":["ins E (0,1)","ins E (1,2)","ins E (2,3)"]}
{"id":3,"op":"query","session":"smoke","args":[]}
{"id":4,"op":"snapshot","session":"smoke","path":"$SNAP"}
{"id":5,"op":"restore","session":"smoke2","path":"$SNAP","backend":"bulk"}
{"id":6,"op":"query","session":"smoke2","args":[]}
{"id":7,"op":"stats","session":"smoke"}
{"id":8,"op":"list"}
EOF
)
echo "$RESP"
if echo "$RESP" | grep -q '"ok":false'; then
  echo "serve_smoke: protocol error" >&2
  exit 1
fi
echo "$RESP" | grep -q '"applied":3' || {
  echo "serve_smoke: 3-request batch not applied as one call" >&2
  exit 1
}
orig=$(echo "$RESP" | sed -n 's/.*"id":3.*"result":\(true\|false\).*/\1/p')
rest=$(echo "$RESP" | sed -n 's/.*"id":6.*"result":\(true\|false\).*/\1/p')
[[ -n "$orig" && "$orig" == "$rest" ]] || {
  echo "serve_smoke: restored session answers $rest, original $orig" >&2
  exit 1
}

# Load-generate every backend. --verify replays the workload offline on
# the sequential runner and exits 1 unless the served answer matches;
# on top of that, require nonzero throughput and no dropped updates.
for backend in tuple bulk delta auto; do
  OUT=$("$DYNFO" loadgen reach_u --socket "$SOCK" --backend "$backend" \
    --length 256 --batch 16 --json --verify)
  echo "$OUT"
  echo "$OUT" | grep -q '"updates": 256' || {
    echo "serve_smoke: loadgen dropped updates on $backend" >&2
    exit 1
  }
  ups=$(echo "$OUT" | sed -n 's/.*"updates_per_s": \([0-9.]*\).*/\1/p')
  [[ -n "$ups" && "$ups" != "0.0" ]] || {
    echo "serve_smoke: zero throughput on $backend" >&2
    exit 1
  }
done

# Commute coalescing: both queue disciplines must verify against the
# offline replay, and the commute session must actually exploit its
# verified laws (nonzero dedupe/elide on parity's all-commute matrix).
for mode in fifo commute; do
  OUT=$("$DYNFO" loadgen parity --socket "$SOCK" --coalesce "$mode" \
    --length 256 --batch 16 --json --verify)
  echo "$OUT"
  echo "$OUT" | grep -q "\"coalesce\": \"$mode\"" || {
    echo "serve_smoke: loadgen did not run in $mode mode" >&2
    exit 1
  }
done
echo "$OUT" | grep -q '"deduped": 0' && {
  echo "serve_smoke: commute session deduped nothing on parity" >&2
  exit 1
}

# Concurrent sessions: every tick meters a work counter of its own, so
# a session's reported work must not depend on what other sessions
# evaluate meanwhile. msf's matrices are cold here, so its create
# model-checks while reach_u steps; then each runs again alone.
LG_R=(loadgen reach_u --socket "$SOCK" --backend delta --size 10 --length 400
  --batch 4 --seed 1 --json)
LG_M=(loadgen msf --socket "$SOCK" --backend delta --length 200 --batch 4
  --seed 2 --json)
"$DYNFO" "${LG_R[@]}" >"$TMP/reach_u.both" &
R_PID=$!
"$DYNFO" "${LG_M[@]}" >"$TMP/msf.both" &
M_PID=$!
wait "$R_PID"
wait "$M_PID"
"$DYNFO" "${LG_R[@]}" >"$TMP/reach_u.alone"
"$DYNFO" "${LG_M[@]}" >"$TMP/msf.alone"
for p in reach_u msf; do
  cat "$TMP/$p.both"
  both=$(sed -n 's/.*"work": \([0-9]*\).*/\1/p' "$TMP/$p.both")
  alone=$(sed -n 's/.*"work": \([0-9]*\).*/\1/p' "$TMP/$p.alone")
  [[ -n "$both" && "$both" == "$alone" ]] || {
    echo "serve_smoke: $p work $both next to another session, $alone alone" >&2
    exit 1
  }
done

# A commute-mode protocol exchange: duplicate requests in one batch are
# acknowledged in full, and stats exposes the coalescing counters.
RESP=$("$DYNFO" client --socket "$SOCK" <<EOF
{"id":10,"op":"create","session":"comm","program":"parity","size":8,"coalesce":"commute"}
{"id":11,"op":"update","session":"comm","reqs":["ins M (1)","ins M (1)","ins M (2)","ins M (2)"]}
{"id":12,"op":"query","session":"comm","args":[]}
{"id":13,"op":"stats","session":"comm"}
EOF
)
echo "$RESP"
if echo "$RESP" | grep -q '"ok":false'; then
  echo "serve_smoke: commute exchange protocol error" >&2
  exit 1
fi
echo "$RESP" | grep -q '"applied":4' || {
  echo "serve_smoke: duplicate batch not acknowledged in full" >&2
  exit 1
}
echo "$RESP" | grep -q '"deduped":2' || {
  echo "serve_smoke: commute stats do not show the 2 dedupes" >&2
  exit 1
}
echo "$RESP" | sed -n 's/.*"id":12[^}]*"result":\(true\|false\).*/\1/p' \
  | grep -q 'false' || {
  echo "serve_smoke: two distinct inserts must leave parity even" >&2
  exit 1
}

# Batch absorption over the wire: reach_u has no on_set block, so the
# definable-change analysis certifies `Absorb for set s/t — a 2-request
# wire batch must land input-only in exactly one evaluation tick; the
# ins* batch then streams its 3 edges under one delta scope.
RESP=$("$DYNFO" client --socket "$SOCK" <<EOF
{"id":20,"op":"create","session":"abs","program":"reach_u","size":8,"backend":"delta"}
{"id":21,"op":"stats","session":"abs"}
{"id":22,"op":"update","session":"abs","reqs":["set s 0","set t 3"]}
{"id":23,"op":"stats","session":"abs"}
{"id":24,"op":"update","session":"abs","reqs":["ins* E (0,1) (1,2) (2,3)"]}
{"id":25,"op":"query","session":"abs","args":[]}
{"id":26,"op":"stats","session":"abs"}
EOF
)
echo "$RESP"
if echo "$RESP" | grep -q '"ok":false'; then
  echo "serve_smoke: absorption exchange protocol error" >&2
  exit 1
fi
echo "$RESP" | grep '"id":21' | grep -q '"ticks":0' || {
  echo "serve_smoke: fresh session should have 0 ticks" >&2
  exit 1
}
# Counters of the whole process (earned by every session and by the
# analyses' model checks) appear only inside "process", apart from the
# fresh session's own fields.
echo "$RESP" | grep '"id":21' | python3 -c '
import json, sys
r = json.load(sys.stdin)
keys = ["delta_fast_hits", "delta_memo_hits", "delta_memo_misses",
        "delta_mask_builds", "delta_mask_reuse_hits", "delta_words_cleared",
        "delta_small_frontier_hits", "pages_allocated", "page_skip_hits"]
process = r.get("process", {})
sys.exit(0 if all(k not in r and k in process for k in keys) else 1)
' || {
  echo "serve_smoke: process counters outside the stats reply's \"process\" object" >&2
  exit 1
}
echo "$RESP" | grep '"id":23' | grep -q '"ticks":1' || {
  echo "serve_smoke: set batch did not land in a single tick" >&2
  exit 1
}
echo "$RESP" | grep '"id":23' | grep -q '"absorbed":2' || {
  echo "serve_smoke: set batch was not absorbed input-only" >&2
  exit 1
}
echo "$RESP" | grep '"id":26' | grep -q '"streamed":3' || {
  echo "serve_smoke: ins* batch did not stream under one delta scope" >&2
  exit 1
}
echo "$RESP" | sed -n 's/.*"id":25[^}]*"result":\(true\|false\).*/\1/p' \
  | grep -q 'true' || {
  echo "serve_smoke: 0->3 path with s=0 t=3 must answer true" >&2
  exit 1
}

# Clean shutdown: the daemon replies first, then exits and unlinks.
echo '{"id":99,"op":"shutdown"}' | "$DYNFO" client --socket "$SOCK" \
  | grep -q '"ok":true'
for _ in $(seq 1 100); do kill -0 "$SERVE_PID" 2>/dev/null || break; sleep 0.1; done
if kill -0 "$SERVE_PID" 2>/dev/null; then
  echo "serve_smoke: daemon still running after shutdown" >&2
  exit 1
fi
[[ ! -e "$SOCK" ]] || {
  echo "serve_smoke: socket not unlinked on shutdown" >&2
  exit 1
}
SERVE_PID=
echo "serve_smoke: OK"
