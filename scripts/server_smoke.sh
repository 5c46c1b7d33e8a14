#!/usr/bin/env bash
# End-to-end server smoke: gendata generates a dataset, tkplqd serves it,
# and the HTTP API must answer /healthz, /v2/query, /v2/subscribe (SSE live
# feed) and /v1/stats with well-formed payloads. The durability section then
# restarts the daemon with a data directory, ingests, seals, kills it with
# SIGKILL mid-flight and asserts the restarted daemon maps the sealed
# partitions, replays only the log tail and answers the same query
# identically; compacts and does it again; seeds a directory from a gendata
# bin file through -iupt FILE -format bin -data-dir; and checks that a legacy
# flat snapshot in a data directory stops the boot.
# Run from the repo root (CI runs `make smoke`).
set -euo pipefail

PORT=$(( (RANDOM % 20000) + 20000 ))
ADDR="127.0.0.1:${PORT}"
WORKDIR=$(mktemp -d)
DAEMON_PID=""
SSE_PID=""

cleanup() {
    if [ -n "${SSE_PID}" ] && kill -0 "${SSE_PID}" 2>/dev/null; then
        kill "${SSE_PID}" 2>/dev/null || true
        wait "${SSE_PID}" 2>/dev/null || true
    fi
    if [ -n "${DAEMON_PID}" ] && kill -0 "${DAEMON_PID}" 2>/dev/null; then
        kill -9 "${DAEMON_PID}" 2>/dev/null || true
        wait "${DAEMON_PID}" 2>/dev/null || true
    fi
    rm -rf "${WORKDIR}"
}
trap cleanup EXIT

# wait_healthy blocks until the daemon answers /healthz (or dies / times out).
wait_healthy() {
    local log=$1
    for i in $(seq 1 100); do
        if curl -fsS "http://${ADDR}/healthz" >/dev/null 2>&1; then
            return 0
        fi
        if ! kill -0 "${DAEMON_PID}" 2>/dev/null; then
            echo "tkplqd exited early:"; cat "${log}"; exit 1
        fi
        if [ "$i" -eq 100 ]; then
            echo "tkplqd never became healthy:"; cat "${log}"; exit 1
        fi
        sleep 0.1
    done
}

echo "== building gendata + tkplqd"
go build -o "${WORKDIR}/gendata" ./cmd/gendata
go build -o "${WORKDIR}/tkplqd" ./cmd/tkplqd

echo "== generating dataset"
"${WORKDIR}/gendata" -objects 12 -duration 1800 -seed 7 \
    -out "${WORKDIR}/smoke.csv" -stats

echo "== starting tkplqd on ${ADDR}"
"${WORKDIR}/tkplqd" -addr "${ADDR}" -dataset syn -iupt "${WORKDIR}/smoke.csv" \
    > "${WORKDIR}/tkplqd.log" 2>&1 &
DAEMON_PID=$!
wait_healthy "${WORKDIR}/tkplqd.log"

echo "== /healthz"
HEALTH=$(curl -fsS "http://${ADDR}/healthz")
echo "${HEALTH}"
[ "$(echo "${HEALTH}" | jq -r .status)" = "ok" ]
[ "$(echo "${HEALTH}" | jq -r .records)" -gt 0 ]

echo "== /v2/query (top-5 best-first)"
QUERY=$(curl -fsS -X POST "http://${ADDR}/v2/query" \
    -H 'Content-Type: application/json' \
    -d '{"kind":"topk","algorithm":"bf","k":5}')
echo "${QUERY}" | jq .

# Well-formed ranking: HTTP 200 (curl -f), non-empty results, every entry has
# an id, a name and a numeric non-negative flow, and flows are descending.
[ "$(echo "${QUERY}" | jq '.results | length')" -gt 0 ]
echo "${QUERY}" | jq -e '.results | all(.sloc >= 0 and .name != "" and (.flow | type == "number") and .flow >= 0)' >/dev/null
echo "${QUERY}" | jq -e '[.results[].flow] | . == (sort | reverse)' >/dev/null
echo "${QUERY}" | jq -e '.stats.objects_total > 0' >/dev/null

echo "== /v2/query (single object form)"
Q2=$(curl -fsS -X POST "http://${ADDR}/v2/query" \
    -H 'Content-Type: application/json' \
    -d '{"kind":"flow","slocs":[0]}')
echo "${Q2}" | jq .
echo "${Q2}" | jq -e '.results | length == 1' >/dev/null

echo "== /v2/query (shared-work batch form)"
BATCH=$(curl -fsS -X POST "http://${ADDR}/v2/query" \
    -H 'Content-Type: application/json' \
    -d '[{"kind":"topk","algorithm":"bf","k":3},{"kind":"topk","algorithm":"nl","k":5},{"kind":"density","k":3}]')
echo "${BATCH}" | jq .
[ "$(echo "${BATCH}" | jq 'length')" = "3" ]
# All three share one window, so each response reports the shared pass.
echo "${BATCH}" | jq -e 'all(.stats.shared_batch == 3)' >/dev/null

echo "== error envelope (unknown endpoint + typo'd field are JSON)"
NOTFOUND=$(curl -sS "http://${ADDR}/nope")
[ "$(echo "${NOTFOUND}" | jq -r .error | wc -c)" -gt 1 ]
# The removed v1 query endpoint is an unknown endpoint like any other.
GONE=$(curl -sS -o "${WORKDIR}/gone.json" -w '%{http_code}' -X POST "http://${ADDR}/v1/query" \
    -H 'Content-Type: application/json' -d '{"kind":"topk","k":5}')
[ "${GONE}" = "404" ]
jq -e '.error | length > 0' "${WORKDIR}/gone.json" >/dev/null
TYPO=$(curl -sS -X POST "http://${ADDR}/v2/query" \
    -H 'Content-Type: application/json' -d '{"kay":5}')
[ "$(echo "${TYPO}" | jq -r .error | wc -c)" -gt 1 ]
# An in-memory daemon must refuse snapshots with the envelope, not a crash.
NOSNAP=$(curl -sS -X POST "http://${ADDR}/v1/snapshot")
[ "$(echo "${NOSNAP}" | jq -r .error | wc -c)" -gt 1 ]

echo "== /v1/ingest"
INGEST=$(curl -fsS -X POST "http://${ADDR}/v1/ingest" \
    -H 'Content-Type: application/json' \
    -d '{"records":[{"oid":9001,"t":60,"samples":[{"ploc":0,"prob":1.0}]}]}')
echo "${INGEST}"
[ "$(echo "${INGEST}" | jq -r .ingested)" = "1" ]

echo "== /v2/subscribe (SSE live feed)"
# A streaming subscriber gets the current snapshot immediately, then a pushed
# update once an ingest changes the ranking. The late record slides the feed's
# window far past every existing flow, so the top-k must change.
curl -N -sS "http://${ADDR}/v2/subscribe?window=600&k=3" > "${WORKDIR}/sse.out" &
SSE_PID=$!
for i in $(seq 1 100); do
    if [ "$(grep -c '^event: update' "${WORKDIR}/sse.out" 2>/dev/null || true)" -ge 1 ]; then
        break
    fi
    [ "$i" -eq 100 ] && { echo "no SSE snapshot arrived:"; cat "${WORKDIR}/sse.out"; exit 1; }
    sleep 0.1
done
curl -fsS -X POST "http://${ADDR}/v1/ingest" -H 'Content-Type: application/json' \
    -d '{"records":[{"oid":9100,"t":999999,"samples":[{"ploc":0,"prob":1.0}]}]}' >/dev/null
for i in $(seq 1 100); do
    if [ "$(grep -c '^event: update' "${WORKDIR}/sse.out" 2>/dev/null || true)" -ge 2 ]; then
        break
    fi
    [ "$i" -eq 100 ] && { echo "no SSE update after ingest:"; cat "${WORKDIR}/sse.out"; exit 1; }
    sleep 0.1
done
# The pushed update is well-formed JSON reflecting the new record.
grep '^data: ' "${WORKDIR}/sse.out" | tail -1 | sed 's/^data: //' | \
    jq -e '.seq >= 1 and (.results | length) == 3 and .te == 999999' >/dev/null
kill "${SSE_PID}"
wait "${SSE_PID}" 2>/dev/null || true
SSE_PID=""
# The server notices the disconnect and releases the subscription.
for i in $(seq 1 100); do
    if [ "$(curl -fsS "http://${ADDR}/v1/stats" | jq -r .subscriptions.active)" = "0" ]; then
        break
    fi
    [ "$i" -eq 100 ] && { echo "subscription never torn down after disconnect"; exit 1; }
    sleep 0.1
done
# The request's context closes the subscription, and its monitor goes with
# its last subscriber.
for i in $(seq 1 100); do
    if curl -fsS "http://${ADDR}/v1/stats" | jq -e '.subscriptions.monitors | length == 0' >/dev/null; then
        break
    fi
    [ "$i" -eq 100 ] && { echo "monitor never torn down after disconnect"; exit 1; }
    sleep 0.1
done
# Identical feeds always share a monitor: no_coalesce is refused with the
# envelope before any stream starts.
NOCOALESCE=$(curl -sS -o "${WORKDIR}/no_coalesce.json" -w '%{http_code}' \
    "http://${ADDR}/v2/subscribe?window=600&no_coalesce=true")
[ "${NOCOALESCE}" = "400" ]
jq -e '.error | length > 0' "${WORKDIR}/no_coalesce.json" >/dev/null

echo "== /v1/stats"
STATS=$(curl -fsS "http://${ADDR}/v1/stats")
echo "${STATS}" | jq .
echo "${STATS}" | jq -e '.server.queries >= 1 and .server.records_ingested >= 1 and .engine.flights >= 1' >/dev/null
# The closed subscription still counts toward lifetime totals.
echo "${STATS}" | jq -e '.subscriptions.total >= 1 and .subscriptions.updates_sent >= 2 and .subscriptions.active == 0' >/dev/null
# No data dir, no wal section.
echo "${STATS}" | jq -e 'has("wal") | not' >/dev/null

echo "== graceful shutdown"
kill "${DAEMON_PID}"
wait "${DAEMON_PID}"
DAEMON_PID=""

echo "== durability: start with -data-dir"
DATA_DIR="${WORKDIR}/data"
DURABLE_ARGS=(-addr "${ADDR}" -dataset syn -iupt "${WORKDIR}/smoke.csv"
    -data-dir "${DATA_DIR}" -fsync always)
"${WORKDIR}/tkplqd" "${DURABLE_ARGS[@]}" > "${WORKDIR}/tkplqd-durable.log" 2>&1 &
DAEMON_PID=$!
wait_healthy "${WORKDIR}/tkplqd-durable.log"
grep -q "bootstrap partition" "${WORKDIR}/tkplqd-durable.log"

echo "== durability: ingest + on-demand seal + tail"
curl -fsS -X POST "http://${ADDR}/v1/ingest" -H 'Content-Type: application/json' \
    -d '{"records":[{"oid":9001,"t":60,"samples":[{"ploc":0,"prob":1.0}]},{"oid":9001,"t":90,"samples":[{"ploc":1,"prob":0.5},{"ploc":2,"prob":0.5}]}]}' >/dev/null
SEAL=$(curl -fsS -X POST "http://${ADDR}/v1/snapshot")
echo "${SEAL}"
[ "$(echo "${SEAL}" | jq -r .snapshot_seq)" = "2" ]
curl -fsS -X POST "http://${ADDR}/v1/ingest" -H 'Content-Type: application/json' \
    -d '{"records":[{"oid":9002,"t":120,"samples":[{"ploc":3,"prob":1.0}]}]}' >/dev/null
PSTATS=$(curl -fsS "http://${ADDR}/v1/stats")
echo "${PSTATS}" | jq '{wal, storage}'
echo "${PSTATS}" | jq -e '.wal.records_since_snapshot == 1 and .wal.fsyncs >= 1' >/dev/null
# The bootstrap partition plus the on-demand seal.
echo "${PSTATS}" | jq -e '.storage.partitions == 2 and .storage.seals == 2' >/dev/null

BEFORE_RESULTS=$(curl -fsS -X POST "http://${ADDR}/v2/query" \
    -H 'Content-Type: application/json' \
    -d '{"kind":"topk","algorithm":"bf","k":5}' | jq -c .results)
BEFORE_RECORDS=$(curl -fsS "http://${ADDR}/healthz" | jq -r .records)

echo "== durability: kill -9, sub-second restart maps the sealed set"
kill -9 "${DAEMON_PID}"
wait "${DAEMON_PID}" 2>/dev/null || true
DAEMON_PID=""
"${WORKDIR}/tkplqd" "${DURABLE_ARGS[@]}" > "${WORKDIR}/tkplqd-restart.log" 2>&1 &
DAEMON_PID=$!
wait_healthy "${WORKDIR}/tkplqd-restart.log"
grep -q "recovered" "${WORKDIR}/tkplqd-restart.log"
grep -q "sealed partitions mapped" "${WORKDIR}/tkplqd-restart.log"
# Before any query touches the table: both partitions mapped, only the
# 1-record WAL tail replayed, zero sealed records decoded.
PSTATS2=$(curl -fsS "http://${ADDR}/v1/stats")
echo "${PSTATS2}" | jq '{storage, wal: {replayed_records: .wal.replayed_records}}'
echo "${PSTATS2}" | jq -e '.storage.partitions == 2 and .storage.materialized_records == 0 and .wal.replayed_records == 1' >/dev/null

AFTER_RESULTS=$(curl -fsS -X POST "http://${ADDR}/v2/query" \
    -H 'Content-Type: application/json' \
    -d '{"kind":"topk","algorithm":"bf","k":5}' | jq -c .results)
AFTER_RECORDS=$(curl -fsS "http://${ADDR}/healthz" | jq -r .records)
if [ "${BEFORE_RESULTS}" != "${AFTER_RESULTS}" ]; then
    echo "restart changed the answer:"
    echo "before: ${BEFORE_RESULTS}"
    echo "after:  ${AFTER_RESULTS}"
    exit 1
fi
[ "${BEFORE_RECORDS}" = "${AFTER_RECORDS}" ]
echo "recovered ${AFTER_RECORDS} records; rankings identical across kill -9"

echo "== compaction: ingest past several more seals"
for round in 1 2 3; do
    curl -fsS -X POST "http://${ADDR}/v1/ingest" -H 'Content-Type: application/json' \
        -d "{\"records\":[{\"oid\":910${round},\"t\":$((240 + round * 30)),\"samples\":[{\"ploc\":0,\"prob\":1.0}]}]}" >/dev/null
    curl -fsS -X POST "http://${ADDR}/v1/snapshot" >/dev/null
done
C_PARTS_BEFORE=$(curl -fsS "http://${ADDR}/v1/stats" | jq -r .storage.partitions)
[ "${C_PARTS_BEFORE}" -ge 5 ]
C_BEFORE=$(curl -fsS -X POST "http://${ADDR}/v2/query" \
    -H 'Content-Type: application/json' \
    -d '{"kind":"topk","algorithm":"bf","k":5}' | jq -c .results)

echo "== compaction: POST /v1/compact merges the small-partition run"
COMPACT=$(curl -fsS -X POST "http://${ADDR}/v1/compact")
echo "${COMPACT}"
[ "$(echo "${COMPACT}" | jq -r .inputs)" -ge 2 ]
CSTATS=$(curl -fsS "http://${ADDR}/v1/stats")
echo "${CSTATS}" | jq .storage
C_PARTS_AFTER=$(echo "${CSTATS}" | jq -r .storage.partitions)
if [ "${C_PARTS_AFTER}" -ge "${C_PARTS_BEFORE}" ]; then
    echo "compaction did not shrink the live set: ${C_PARTS_BEFORE} -> ${C_PARTS_AFTER}"
    exit 1
fi
echo "${CSTATS}" | jq -e '.storage.compactions == 1 and .storage.compacted_partitions >= 2' >/dev/null
C_AFTER=$(curl -fsS -X POST "http://${ADDR}/v2/query" \
    -H 'Content-Type: application/json' \
    -d '{"kind":"topk","algorithm":"bf","k":5}' | jq -c .results)
if [ "${C_BEFORE}" != "${C_AFTER}" ]; then
    echo "compaction changed the answer:"
    echo "before: ${C_BEFORE}"
    echo "after:  ${C_AFTER}"
    exit 1
fi

echo "== compaction: kill -9, restart recovers the compacted set"
kill -9 "${DAEMON_PID}"
wait "${DAEMON_PID}" 2>/dev/null || true
DAEMON_PID=""
"${WORKDIR}/tkplqd" "${DURABLE_ARGS[@]}" > "${WORKDIR}/tkplqd-compact.log" 2>&1 &
DAEMON_PID=$!
wait_healthy "${WORKDIR}/tkplqd-compact.log"
CSTATS2=$(curl -fsS "http://${ADDR}/v1/stats")
echo "${CSTATS2}" | jq -e ".storage.partitions == ${C_PARTS_AFTER}" >/dev/null
C_RESTART=$(curl -fsS -X POST "http://${ADDR}/v2/query" \
    -H 'Content-Type: application/json' \
    -d '{"kind":"topk","algorithm":"bf","k":5}' | jq -c .results)
if [ "${C_AFTER}" != "${C_RESTART}" ]; then
    echo "restart after compaction changed the answer:"
    echo "before: ${C_AFTER}"
    echo "after:  ${C_RESTART}"
    exit 1
fi
echo "compaction: ${C_PARTS_BEFORE} partitions -> ${C_PARTS_AFTER}, rankings identical across compact + kill -9"

echo "== graceful shutdown (durable)"
kill "${DAEMON_PID}"
wait "${DAEMON_PID}"
DAEMON_PID=""

echo "== seeding: a gendata bin file seeds a data dir through -iupt FILE -format bin -data-dir"
# The one door from a file into a data directory: the first boot seals the
# file into the bootstrap partition.
SEED_DIR="${WORKDIR}/seeded"
"${WORKDIR}/gendata" -objects 12 -duration 1800 -seed 7 \
    -format bin -out "${WORKDIR}/seed.bin"
"${WORKDIR}/tkplqd" -addr "${ADDR}" -dataset syn -iupt "${WORKDIR}/seed.bin" -format bin \
    -data-dir "${SEED_DIR}" > "${WORKDIR}/tkplqd-seeded.log" 2>&1 &
DAEMON_PID=$!
wait_healthy "${WORKDIR}/tkplqd-seeded.log"
grep -q "bootstrap partition" "${WORKDIR}/tkplqd-seeded.log"
# The seeded table answers exactly what the in-memory daemon answered over
# the same dataset.
SEEDED_RESULTS=$(curl -fsS -X POST "http://${ADDR}/v2/query" \
    -H 'Content-Type: application/json' \
    -d '{"kind":"topk","algorithm":"bf","k":5}' | jq -c .results)
if [ "$(echo "${QUERY}" | jq -c .results)" != "${SEEDED_RESULTS}" ]; then
    echo "seeding changed the answer:"
    echo "in-memory: $(echo "${QUERY}" | jq -c .results)"
    echo "seeded:    ${SEEDED_RESULTS}"
    exit 1
fi

echo "== seeding: kill -9, the reboot maps the one partition and replays nothing"
kill -9 "${DAEMON_PID}"
wait "${DAEMON_PID}" 2>/dev/null || true
DAEMON_PID=""
"${WORKDIR}/tkplqd" -addr "${ADDR}" -dataset syn -data-dir "${SEED_DIR}" \
    > "${WORKDIR}/tkplqd-seeded2.log" 2>&1 &
DAEMON_PID=$!
wait_healthy "${WORKDIR}/tkplqd-seeded2.log"
curl -fsS "http://${ADDR}/v1/stats" | jq -e '.storage.partitions == 1 and .wal.replayed_records == 0' >/dev/null
SEEDED_RESTART=$(curl -fsS -X POST "http://${ADDR}/v2/query" \
    -H 'Content-Type: application/json' \
    -d '{"kind":"topk","algorithm":"bf","k":5}' | jq -c .results)
[ "${SEEDED_RESULTS}" = "${SEEDED_RESTART}" ]
echo "seeded once; rankings identical to the in-memory daemon across kill -9"

echo "== graceful shutdown (seeded)"
kill "${DAEMON_PID}"
wait "${DAEMON_PID}"
DAEMON_PID=""

echo "== refusal: a legacy flat snapshot in a data dir stops the boot"
# A snapshot-N.bin newer than every partition is an older build's table,
# which this build does not read: tkplqd exits non-zero, names the file and
# leaves it in place.
FLAT_DIR="${WORKDIR}/flat"
mkdir -p "${FLAT_DIR}"
cp "${WORKDIR}/seed.bin" "${FLAT_DIR}/snapshot-00000001.bin"
set +e
timeout 60 "${WORKDIR}/tkplqd" -addr "${ADDR}" -dataset syn -data-dir "${FLAT_DIR}" \
    > "${WORKDIR}/tkplqd-flat.log" 2>&1
RC=$?
set -e
if [ "${RC}" -eq 0 ] || [ "${RC}" -eq 124 ]; then
    echo "tkplqd did not refuse the flat directory (exit ${RC}):"; cat "${WORKDIR}/tkplqd-flat.log"; exit 1
fi
grep -q "snapshot-00000001.bin" "${WORKDIR}/tkplqd-flat.log"
cmp "${WORKDIR}/seed.bin" "${FLAT_DIR}/snapshot-00000001.bin"
echo "refused with exit ${RC}; the snapshot is untouched"

echo "server smoke OK"
