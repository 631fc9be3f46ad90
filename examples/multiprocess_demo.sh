#!/usr/bin/env bash
# Multi-process keyword-search demo — and the CI smoke test for the
# real-process runtime.
#
# Launches SHARDS peerd processes (each a complete Chord+DOLR+hypercube
# cluster over real loopback sockets, holding one slice of the seeded demo
# corpus), then runs the peerd query front-end against all of them: one
# superset query scattered over inter-process TCP as fe.query wire frames,
# gathered, merged, and — with --check — verified object-for-object against
# an in-process LogicalIndex over the full corpus. Any mismatch, protocol
# error, or unreachable shard exits nonzero.
#
# With --restart the script additionally exercises the crash-restart path:
# shard 0 is killed outright (SIGKILL, no drain), relaunched with the same
# flags, re-derives and re-publishes its seeded corpus slice, announces a
# fresh port — and every query answer must be byte-for-byte identical to the
# pre-crash run. Finally a SIGTERM to shard 0 must produce a graceful drain
# (DRAIN=clean in its log).
#
# Every process that shuts down gracefully must also print LEDGER=ok: its
# message ledger's conservation and loss-attribution identities held at
# shutdown (src/net/ledger.hpp).
#
# With --split the script instead runs the split-overlay deployment: PROCS
# `peerd peer` processes sharing ONE overlay (each owns a slice of its
# peers, every cross-slice protocol step crosses a real process boundary),
# rendezvousing through a mesh directory. Queries go to rank 0's front-end
# and are --check-verified against LogicalIndex ground truth. With
# `--split N udp RATE` the mesh runs over UDP datagrams with seeded loss,
# recovered by per-step retransmission — the answers must still be exact.
#
# Usage: multiprocess_demo.sh /path/to/peerd [shards] [--restart]
#        multiprocess_demo.sh /path/to/peerd --split [procs] [tcp|udp] [drop]
set -euo pipefail

PEERD=${1:?usage: multiprocess_demo.sh /path/to/peerd [shards|--split] ...}
SPLIT=0
if [[ "${2:-}" == "--split" ]]; then
  SPLIT=1
  PROCS=${3:-3}
  TRANSPORT=${4:-tcp}
  DROP=${5:-0}
fi
SHARDS=${2:-3}
RESTART=0
[[ "${3:-}" == "--restart" ]] && RESTART=1
WORKDIR=$(mktemp -d)
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "$WORKDIR"
}
trap cleanup EXIT

# Polls a shard's log for its PORT=<n> announcement (printed once the
# cluster has settled and the front-end listener is up).
wait_port() { # shard-index log-file pid -> sets PORT
  local i=$1 log=$2 pid=$3 t port=""
  for ((t = 0; t < 300; t++)); do
    if port=$(grep -om1 '^PORT=[0-9]*' "$log" 2>/dev/null); then
      break
    fi
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "shard $i died during startup:" >&2
      cat "$log" >&2
      exit 1
    fi
    sleep 0.1
  done
  port=${port#PORT=}
  if [[ -z "${port:-}" ]]; then
    echo "shard $i never announced its port" >&2
    exit 1
  fi
  PORT=$port
}

# Asserts a drained process printed LEDGER=ok.
check_ledger() { # label log-file
  if ! grep -q '^LEDGER=ok$' "$2"; then
    echo "$1: message ledger identities do not hold:" >&2
    cat "$2" >&2
    exit 1
  fi
}

if [[ "$SPLIT" == 1 ]]; then
  # --- split-overlay mode: PROCS processes, ONE overlay --------------------
  MESH="$WORKDIR/mesh"
  mkdir -p "$MESH"
  echo "== launching $PROCS split-overlay peers (transport=$TRANSPORT drop=$DROP) =="
  for ((i = PROCS - 1; i >= 0; i--)); do
    "$PEERD" peer --rank "$i" --procs "$PROCS" --mesh-dir "$MESH" \
      --transport "$TRANSPORT" --drop "$DROP" \
      >"$WORKDIR/rank$i.log" 2>&1 &
    PIDS+=($!)
  done
  # PIDS[k] is rank PROCS-1-k; rank 0 (the front-end) was launched last.
  RANK0_PID=${PIDS[$((PROCS - 1))]}
  wait_port 0 "$WORKDIR/rank0.log" "$RANK0_PID"
  echo "  rank 0 front-end on port $PORT (corpus settled)"

  echo "== querying the split overlay =="
  "$PEERD" query --ports "$PORT" --check -- w3
  "$PEERD" query --ports "$PORT" --check --threshold 2 -- w1 w4
  "$PEERD" query --ports "$PORT" --check -- w0

  echo "== graceful stop (SIGTERM) of all ranks =="
  for pid in "${PIDS[@]}"; do kill -TERM "$pid" 2>/dev/null || true; done
  for pid in "${PIDS[@]}"; do wait "$pid" 2>/dev/null || true; done
  for ((i = 0; i < PROCS; i++)); do
    if ! grep -q 'DRAIN=clean' "$WORKDIR/rank$i.log"; then
      echo "rank $i did not drain cleanly:" >&2
      cat "$WORKDIR/rank$i.log" >&2
      exit 1
    fi
    check_ledger "rank $i" "$WORKDIR/rank$i.log"
  done
  echo "  all ranks drained cleanly, ledgers balanced"
  echo "== split demo ok =="
  exit 0
fi

echo "== launching $SHARDS shard processes =="
for ((i = 0; i < SHARDS; i++)); do
  "$PEERD" serve --shard "$i" --shards "$SHARDS" >"$WORKDIR/shard$i.log" 2>&1 &
  PIDS+=($!)
done

PORTS=""
SHARD_PORTS=()
for ((i = 0; i < SHARDS; i++)); do
  wait_port "$i" "$WORKDIR/shard$i.log" "${PIDS[$i]}"
  echo "  shard $i ready on port $PORT"
  SHARD_PORTS+=("$PORT")
  PORTS="$PORTS${PORTS:+,}$PORT"
done

# Three queries across strategies; --check asserts each distributed answer
# equals the LogicalIndex ground truth, end to end.
run_queries() { # output-file
  {
    "$PEERD" query --ports "$PORTS" --shards "$SHARDS" --check -- w3
    "$PEERD" query --ports "$PORTS" --shards "$SHARDS" --check \
      --strategy level-parallel -- w1 w4
    "$PEERD" query --ports "$PORTS" --shards "$SHARDS" --check \
      --strategy bottom-up -- w0
  } | tee "$1"
}

echo "== querying all shards =="
run_queries "$WORKDIR/answers.before"

if [[ "$RESTART" == 1 ]]; then
  echo "== crash-restarting shard 0 (SIGKILL, no drain) =="
  kill -9 "${PIDS[0]}" 2>/dev/null || true
  wait "${PIDS[0]}" 2>/dev/null || true
  "$PEERD" serve --shard 0 --shards "$SHARDS" \
    >"$WORKDIR/shard0.restart.log" 2>&1 &
  PIDS[0]=$!
  wait_port 0 "$WORKDIR/shard0.restart.log" "${PIDS[0]}"
  echo "  shard 0 back on port $PORT"
  SHARD_PORTS[0]=$PORT
  PORTS=$(IFS=,; echo "${SHARD_PORTS[*]}")

  echo "== re-querying after restart =="
  run_queries "$WORKDIR/answers.after"
  # The corpus is seeded, so the restarted shard must reproduce its slice
  # exactly: every hit line byte-for-byte identical to the pre-crash run.
  # Only the messages= statistic is masked — protocol message counts depend
  # on cache/replication state the surviving shards warmed up, not on what
  # the answers contain.
  if ! diff -u <(sed 's/messages=[0-9]*/messages=_/' "$WORKDIR/answers.before") \
              <(sed 's/messages=[0-9]*/messages=_/' "$WORKDIR/answers.after"); then
    echo "restart changed the answers" >&2
    exit 1
  fi
  echo "  answers identical across the restart"

  echo "== graceful stop (SIGTERM) of shard 0 =="
  kill -TERM "${PIDS[0]}" 2>/dev/null || true
  for ((t = 0; t < 100; t++)); do
    kill -0 "${PIDS[0]}" 2>/dev/null || break
    sleep 0.1
  done
  if ! grep -q 'DRAIN=clean' "$WORKDIR/shard0.restart.log"; then
    echo "shard 0 did not drain cleanly on SIGTERM:" >&2
    cat "$WORKDIR/shard0.restart.log" >&2
    exit 1
  fi
  echo "  shard 0 drained cleanly"
fi

echo "== graceful stop (SIGTERM) of all shards =="
for pid in "${PIDS[@]}"; do kill -TERM "$pid" 2>/dev/null || true; done
for pid in "${PIDS[@]}"; do wait "$pid" 2>/dev/null || true; done
for ((i = 0; i < SHARDS; i++)); do
  log="$WORKDIR/shard$i.log"
  [[ "$RESTART" == 1 && "$i" == 0 ]] && log="$WORKDIR/shard0.restart.log"
  check_ledger "shard $i" "$log"
done
echo "  every shard's ledger balanced"

echo "== demo ok =="
