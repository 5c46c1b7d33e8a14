#!/usr/bin/env bash
# End-to-end cluster smoke: gendata generates a dataset, two shard daemons
# and a router daemon serve it next to a standalone daemon over the same
# records, and the router's answers must be byte-identical to the standalone
# node's. A routed ingest lands on the owning shards and keeps the two
# deployments identical. Then one shard dies by SIGKILL: the router must
# degrade with the structured 503 naming that shard, keep serving
# single-shard presence reads from the survivor, and recover full fan-outs
# (same bytes as before the crash) once the shard restarts from its WAL.
#
# Phase 2 runs the replicated topology: each shard gets a WAL-shipped
# follower, and kill -9 of a primary must leave the router serving the same
# bytes with zero recovery action — reads retry onto the synced follower,
# the health loop promotes it, ingest resumes on the new primary, and the
# old primary rejoins as a follower without a full resync.
# Run from the repo root (CI runs `make smoke-cluster`).
set -euo pipefail

BASE_PORT=$(( (RANDOM % 10000) + 21000 ))
SHARD0_ADDR="127.0.0.1:$((BASE_PORT))"
SHARD1_ADDR="127.0.0.1:$((BASE_PORT + 1))"
ROUTER_ADDR="127.0.0.1:$((BASE_PORT + 2))"
SOLO_ADDR="127.0.0.1:$((BASE_PORT + 3))"
WORKDIR=$(mktemp -d)
PIDS=()

cleanup() {
    for pid in "${PIDS[@]}"; do
        if kill -0 "${pid}" 2>/dev/null; then
            kill -9 "${pid}" 2>/dev/null || true
            wait "${pid}" 2>/dev/null || true
        fi
    done
    rm -rf "${WORKDIR}"
}
trap cleanup EXIT

# wait_healthy ADDR LOG blocks until a daemon answers /healthz or times out.
wait_healthy() {
    local addr=$1 log=$2
    for i in $(seq 1 100); do
        if curl -fsS "http://${addr}/healthz" >/dev/null 2>&1; then
            return 0
        fi
        if [ "$i" -eq 100 ]; then
            echo "daemon on ${addr} never became healthy:"; cat "${log}"; exit 1
        fi
        sleep 0.1
    done
}

echo "== building gendata + tkplqd"
go build -o "${WORKDIR}/gendata" ./cmd/gendata
go build -o "${WORKDIR}/tkplqd" ./cmd/tkplqd

echo "== generating dataset"
"${WORKDIR}/gendata" -objects 12 -duration 1800 -seed 7 -out "${WORKDIR}/smoke.csv"

echo "== writing topology"
cat > "${WORKDIR}/topology.json" <<EOF
{"shards":["${SHARD0_ADDR}","${SHARD1_ADDR}"]}
EOF

echo "== starting standalone on ${SOLO_ADDR}"
"${WORKDIR}/tkplqd" -addr "${SOLO_ADDR}" -dataset syn -iupt "${WORKDIR}/smoke.csv" \
    > "${WORKDIR}/solo.log" 2>&1 &
PIDS+=($!)

echo "== starting 2 shards + router"
SHARD_ARGS=(-dataset syn -iupt "${WORKDIR}/smoke.csv" -topology "${WORKDIR}/topology.json" -fsync always)
"${WORKDIR}/tkplqd" -addr "${SHARD0_ADDR}" -role shard -shard-index 0 \
    -data-dir "${WORKDIR}/shard0" "${SHARD_ARGS[@]}" > "${WORKDIR}/shard0.log" 2>&1 &
SHARD0_PID=$!
PIDS+=("${SHARD0_PID}")
"${WORKDIR}/tkplqd" -addr "${SHARD1_ADDR}" -role shard -shard-index 1 \
    -data-dir "${WORKDIR}/shard1" "${SHARD_ARGS[@]}" > "${WORKDIR}/shard1.log" 2>&1 &
PIDS+=($!)
"${WORKDIR}/tkplqd" -addr "${ROUTER_ADDR}" -role router \
    -topology "${WORKDIR}/topology.json" -shard-timeout 5s > "${WORKDIR}/router.log" 2>&1 &
PIDS+=($!)
wait_healthy "${SOLO_ADDR}" "${WORKDIR}/solo.log"
wait_healthy "${SHARD0_ADDR}" "${WORKDIR}/shard0.log"
wait_healthy "${SHARD1_ADDR}" "${WORKDIR}/shard1.log"
wait_healthy "${ROUTER_ADDR}" "${WORKDIR}/router.log"
[ "$(curl -fsS "http://${ROUTER_ADDR}/healthz" | jq -r .role)" = "router" ]

echo "== shard partitions union to the standalone table"
SOLO_RECORDS=$(curl -fsS "http://${SOLO_ADDR}/healthz" | jq -r .records)
S0=$(curl -fsS "http://${SHARD0_ADDR}/healthz" | jq -r .records)
S1=$(curl -fsS "http://${SHARD1_ADDR}/healthz" | jq -r .records)
if [ "$((S0 + S1))" != "${SOLO_RECORDS}" ]; then
    echo "partitions hold $((S0 + S1)) records, standalone holds ${SOLO_RECORDS}"; exit 1
fi

# query ADDR BODY prints the byte-exact results array of a /v2/query.
query() {
    curl -fsS -X POST "http://$1/v2/query" -H 'Content-Type: application/json' \
        -d "$2" | jq -c .results
}

QUERIES=(
    '{"kind":"topk","algorithm":"bf","k":5}'
    '{"kind":"topk","algorithm":"naive","k":3,"te":900}'
    '{"kind":"topk","algorithm":"nl","k":8,"te":1500}'
    '{"kind":"density","k":5}'
    '{"kind":"flow","slocs":[0]}'
)

echo "== router answers byte-identical to standalone"
for q in "${QUERIES[@]}"; do
    WANT=$(query "${SOLO_ADDR}" "${q}")
    GOT=$(query "${ROUTER_ADDR}" "${q}")
    if [ "${GOT}" != "${WANT}" ]; then
        echo "router diverged on ${q}:"; echo "want ${WANT}"; echo "got  ${GOT}"; exit 1
    fi
done

echo "== routed ingest splits across the owning shards"
INGEST='{"records":[
  {"oid":9001,"t":2000,"samples":[{"ploc":0,"prob":1.0}]},
  {"oid":9002,"t":2000,"samples":[{"ploc":1,"prob":0.5},{"ploc":2,"prob":0.5}]},
  {"oid":9003,"t":2001,"samples":[{"ploc":3,"prob":1.0}]}]}'
RING=$(curl -fsS -X POST "http://${ROUTER_ADDR}/v1/ingest" \
    -H 'Content-Type: application/json' -d "${INGEST}")
echo "${RING}" | jq .
[ "$(echo "${RING}" | jq -r .ingested)" = "3" ]
echo "${RING}" | jq -e '.shards | all(.error == null and .ingested == .sent)' >/dev/null
curl -fsS -X POST "http://${SOLO_ADDR}/v1/ingest" \
    -H 'Content-Type: application/json' -d "${INGEST}" >/dev/null

echo "== still byte-identical after ingest (te=0 resolves cluster-wide)"
for q in "${QUERIES[@]}"; do
    WANT=$(query "${SOLO_ADDR}" "${q}")
    GOT=$(query "${ROUTER_ADDR}" "${q}")
    if [ "${GOT}" != "${WANT}" ]; then
        echo "router diverged post-ingest on ${q}:"; echo "want ${WANT}"; echo "got  ${GOT}"; exit 1
    fi
done
BEFORE_CRASH=$(query "${ROUTER_ADDR}" "${QUERIES[0]}")

echo "== router stats aggregate both shards"
RSTATS=$(curl -fsS "http://${ROUTER_ADDR}/v1/stats")
echo "${RSTATS}" | jq .cluster
echo "${RSTATS}" | jq -e '.role == "router" and .cluster.fan_outs >= 1' >/dev/null
echo "${RSTATS}" | jq -e '.cluster.shards | length == 2 and all(.healthy)' >/dev/null

echo "== router refuses the per-shard surfaces with a 501 envelope"
for ep in "POST /v1/snapshot" "POST /v1/compact" "GET /v2/subscribe?window=900&k=3" \
    "POST /v2/partial" "GET /v2/span"; do
    read -r method path <<< "${ep}"
    CODE=$(curl -sS -o "${WORKDIR}/refusal.json" -w '%{http_code}' -X "${method}" "http://${ROUTER_ADDR}${path}")
    if [ "${CODE}" != "501" ] || ! jq -e '.error | length > 0' "${WORKDIR}/refusal.json" >/dev/null; then
        echo "router ${ep} = ${CODE}, want 501 with an error envelope:"; cat "${WORKDIR}/refusal.json"; exit 1
    fi
done

echo "== kill -9 shard 0: fan-outs degrade with the structured 503"
kill -9 "${SHARD0_PID}"
wait "${SHARD0_PID}" 2>/dev/null || true
DEGRADED=$(curl -sS -X POST "http://${ROUTER_ADDR}/v2/query" \
    -H 'Content-Type: application/json' -d "${QUERIES[0]}")
echo "${DEGRADED}" | jq .
echo "${DEGRADED}" | jq -e --arg addr "${SHARD0_ADDR}" \
    '.degraded.shard == 0 and .degraded.addr == $addr and (.degraded.cause | length) > 0' >/dev/null
echo "${DEGRADED}" | jq -e '.error | contains("shard 0") and contains("unavailable")' >/dev/null
# Stats keep serving and mark the dead shard unhealthy.
curl -fsS "http://${ROUTER_ADDR}/v1/stats" | \
    jq -e '.cluster.shards[] | select(.shard == 0) | .healthy == false' >/dev/null

echo "== restart shard 0 from its WAL: full service recovers, same bytes"
"${WORKDIR}/tkplqd" -addr "${SHARD0_ADDR}" -role shard -shard-index 0 \
    -data-dir "${WORKDIR}/shard0" "${SHARD_ARGS[@]}" > "${WORKDIR}/shard0-restart.log" 2>&1 &
PIDS+=($!)
wait_healthy "${SHARD0_ADDR}" "${WORKDIR}/shard0-restart.log"
grep -q "recovered" "${WORKDIR}/shard0-restart.log"
AFTER_CRASH=$(query "${ROUTER_ADDR}" "${QUERIES[0]}")
if [ "${AFTER_CRASH}" != "${BEFORE_CRASH}" ]; then
    echo "shard restart changed the answer:"
    echo "before: ${BEFORE_CRASH}"; echo "after:  ${AFTER_CRASH}"; exit 1
fi

###############################################################################
# Phase 2: replicated shards — kill a primary, keep serving the same bytes.
###############################################################################

S0A_ADDR="127.0.0.1:$((BASE_PORT + 4))"
S0B_ADDR="127.0.0.1:$((BASE_PORT + 5))"
S1A_ADDR="127.0.0.1:$((BASE_PORT + 6))"
S1B_ADDR="127.0.0.1:$((BASE_PORT + 7))"
ROUTER2_ADDR="127.0.0.1:$((BASE_PORT + 8))"
SOLO2_ADDR="127.0.0.1:$((BASE_PORT + 9))"

# wait_ready ADDR LOG blocks until /readyz answers 200 — for a follower that
# means bootstrapped AND caught up to the primary's committed position.
wait_ready() {
    local addr=$1 log=$2
    for i in $(seq 1 200); do
        if curl -fsS "http://${addr}/readyz" >/dev/null 2>&1; then
            return 0
        fi
        if [ "$i" -eq 200 ]; then
            echo "daemon on ${addr} never became ready:"; cat "${log}"; exit 1
        fi
        sleep 0.1
    done
}

# compare2 STAGE checks every query answers byte-identically on router 2 vs
# the phase-2 standalone.
compare2() {
    local stage=$1
    for q in "${QUERIES[@]}"; do
        WANT=$(query "${SOLO2_ADDR}" "${q}")
        GOT=$(query "${ROUTER2_ADDR}" "${q}")
        if [ "${GOT}" != "${WANT}" ]; then
            echo "router diverged (${stage}) on ${q}:"
            echo "want ${WANT}"; echo "got  ${GOT}"; exit 1
        fi
    done
}

echo "== phase 2: replicated topology (2 shards x 2 replicas)"
cat > "${WORKDIR}/topology-repl.json" <<EOF
{"shards":[["${S0A_ADDR}","${S0B_ADDR}"],["${S1A_ADDR}","${S1B_ADDR}"]]}
EOF

REPL_ARGS=(-dataset syn -topology "${WORKDIR}/topology-repl.json" \
    -fsync always -repl-heartbeat 100ms)
"${WORKDIR}/tkplqd" -addr "${S0A_ADDR}" -role shard -shard-index 0 \
    -iupt "${WORKDIR}/smoke.csv" -data-dir "${WORKDIR}/s0a" "${REPL_ARGS[@]}" \
    > "${WORKDIR}/s0a.log" 2>&1 &
S0A_PID=$!
PIDS+=("${S0A_PID}")
"${WORKDIR}/tkplqd" -addr "${S1A_ADDR}" -role shard -shard-index 1 \
    -iupt "${WORKDIR}/smoke.csv" -data-dir "${WORKDIR}/s1a" "${REPL_ARGS[@]}" \
    > "${WORKDIR}/s1a.log" 2>&1 &
PIDS+=($!)
wait_healthy "${S0A_ADDR}" "${WORKDIR}/s0a.log"
wait_healthy "${S1A_ADDR}" "${WORKDIR}/s1a.log"

echo "== booting followers (bootstrap ships the primaries' partitions + WAL)"
"${WORKDIR}/tkplqd" -addr "${S0B_ADDR}" -role shard -shard-index 0 \
    -data-dir "${WORKDIR}/s0b" -replica-of "${S0A_ADDR}" "${REPL_ARGS[@]}" \
    > "${WORKDIR}/s0b.log" 2>&1 &
PIDS+=($!)
"${WORKDIR}/tkplqd" -addr "${S1B_ADDR}" -role shard -shard-index 1 \
    -data-dir "${WORKDIR}/s1b" -replica-of "${S1A_ADDR}" "${REPL_ARGS[@]}" \
    > "${WORKDIR}/s1b.log" 2>&1 &
PIDS+=($!)
wait_ready "${S0B_ADDR}" "${WORKDIR}/s0b.log"
wait_ready "${S1B_ADDR}" "${WORKDIR}/s1b.log"

"${WORKDIR}/tkplqd" -addr "${ROUTER2_ADDR}" -role router \
    -topology "${WORKDIR}/topology-repl.json" -shard-timeout 5s \
    -health-interval 100ms > "${WORKDIR}/router2.log" 2>&1 &
PIDS+=($!)
"${WORKDIR}/tkplqd" -addr "${SOLO2_ADDR}" -dataset syn -iupt "${WORKDIR}/smoke.csv" \
    > "${WORKDIR}/solo2.log" 2>&1 &
PIDS+=($!)
wait_healthy "${ROUTER2_ADDR}" "${WORKDIR}/router2.log"
wait_healthy "${SOLO2_ADDR}" "${WORKDIR}/solo2.log"

# Let the health loop see all four members ready before the crash.
for i in $(seq 1 100); do
    READY=$(curl -fsS "http://${ROUTER2_ADDR}/v1/stats" | \
        jq '[.cluster.shards[].members[] | select(.ready)] | length')
    [ "${READY}" = "4" ] && break
    if [ "$i" -eq 100 ]; then
        echo "router never saw all members ready"; cat "${WORKDIR}/router2.log"; exit 1
    fi
    sleep 0.1
done

compare2 "replicated, healthy"

echo "== routed ingest reaches the primaries and replicates"
INGEST2='{"records":[
  {"oid":9101,"t":2000,"samples":[{"ploc":0,"prob":1.0}]},
  {"oid":9102,"t":2000,"samples":[{"ploc":1,"prob":0.5},{"ploc":2,"prob":0.5}]},
  {"oid":9103,"t":2001,"samples":[{"ploc":3,"prob":1.0}]}]}'
curl -fsS -X POST "http://${ROUTER2_ADDR}/v1/ingest" \
    -H 'Content-Type: application/json' -d "${INGEST2}" | jq -e '.ingested == 3' >/dev/null
curl -fsS -X POST "http://${SOLO2_ADDR}/v1/ingest" \
    -H 'Content-Type: application/json' -d "${INGEST2}" >/dev/null
compare2 "replicated, post-ingest"

echo "== kill -9 the shard-0 primary: reads keep serving the same bytes"
kill -9 "${S0A_PID}"
wait "${S0A_PID}" 2>/dev/null || true
compare2 "primary dead, pre-failover"

echo "== router promotes the synced follower"
for i in $(seq 1 100); do
    FO=$(curl -fsS "http://${ROUTER2_ADDR}/v1/stats" | jq -r .cluster.failovers)
    [ "${FO}" -ge 1 ] && break
    if [ "$i" -eq 100 ]; then
        echo "router never failed over"; cat "${WORKDIR}/router2.log"; exit 1
    fi
    sleep 0.1
done
curl -fsS "http://${ROUTER2_ADDR}/v1/stats" | \
    jq -e --arg addr "${S0B_ADDR}" '.cluster.shards[0].addr == $addr' >/dev/null

echo "== ingest resumes on the promoted primary"
INGEST3='{"records":[
  {"oid":9101,"t":2100,"samples":[{"ploc":4,"prob":1.0}]},
  {"oid":9102,"t":2100,"samples":[{"ploc":5,"prob":1.0}]}]}'
curl -fsS -X POST "http://${ROUTER2_ADDR}/v1/ingest" \
    -H 'Content-Type: application/json' -d "${INGEST3}" | jq -e '.ingested == 2' >/dev/null
curl -fsS -X POST "http://${SOLO2_ADDR}/v1/ingest" \
    -H 'Content-Type: application/json' -d "${INGEST3}" >/dev/null
compare2 "post-failover ingest"

echo "== old primary rejoins as a follower, no full resync"
"${WORKDIR}/tkplqd" -addr "${S0A_ADDR}" -role shard -shard-index 0 \
    -data-dir "${WORKDIR}/s0a" -replica-of "${S0B_ADDR}" "${REPL_ARGS[@]}" \
    > "${WORKDIR}/s0a-rejoin.log" 2>&1 &
PIDS+=($!)
wait_ready "${S0A_ADDR}" "${WORKDIR}/s0a-rejoin.log"
curl -fsS "http://${S0A_ADDR}/v1/stats" | \
    jq -e '.replication.upstream.full_resyncs == 0' >/dev/null
compare2 "after rejoin"

echo "cluster smoke OK"
