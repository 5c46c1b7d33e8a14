package server

import (
	"encoding/json"
	"net/http"
	"strconv"

	"tkplq"
)

// SpanResponse is the body of GET /v2/span: the shard table's time span.
// The router resolves a te == 0 query window to the max hi across shards
// before pinning the window into the fan-out, mirroring the standalone
// end-of-data default.
type SpanResponse struct {
	Lo      int64 `json:"lo"`
	Hi      int64 `json:"hi"`
	Records int   `json:"records"`
	// OK is false when the table is empty (Lo/Hi are meaningless zeros).
	OK bool `json:"ok"`
}

// RouterIngestResponse is the router's /v1/ingest envelope: the standalone
// ingested/records pair plus every involved shard's outcome. On a partial
// failure (HTTP 502) Error summarizes what went wrong while Shards records
// which sub-batches were applied — the caller's recovery map.
type RouterIngestResponse struct {
	Ingested int               `json:"ingested"`
	Records  int               `json:"records"`
	Shards   []ShardIngestJSON `json:"shards"`
	Error    string            `json:"error,omitempty"`
}

// ShardIngestJSON is one shard's outcome within a routed ingest.
type ShardIngestJSON struct {
	Shard    int    `json:"shard"`
	Addr     string `json:"addr"`
	Sent     int    `json:"sent"`
	Ingested int    `json:"ingested"`
	// Records is the shard table's record count after its sub-batch.
	Records int `json:"records,omitempty"`
	// Error and Index report a failed sub-batch; Index is the rejected
	// record's position in the caller's batch (not the sub-batch).
	Error string `json:"error,omitempty"`
	Index int    `json:"index,omitempty"`
}

// ClusterStatsJSON is the `cluster` section of a router's GET /v1/stats.
type ClusterStatsJSON struct {
	// FanOuts counts shard fan-outs (coalesced queries share one).
	FanOuts int64 `json:"fan_outs"`
	// ShardErrors counts fan-outs and routed ingests that failed on a shard.
	ShardErrors int64 `json:"shard_errors"`
	// Coalesced / CoalesceLed report the router-side query coalescer.
	Coalesced   int64 `json:"coalesced"`
	CoalesceLed int64 `json:"coalesce_led"`
	// IngestEpoch is the routed-ingest counter that keys coalescer flights.
	IngestEpoch int64 `json:"ingest_epoch"`
	// Failovers counts primary changes (promotions and adoptions) across
	// all shards since the router started.
	Failovers int64           `json:"failovers"`
	Shards    []ShardStatJSON `json:"shards"`
}

// ShardStatJSON is one shard's health and client counters in a router's
// GET /v1/stats, with the shard's own stats payload embedded verbatim when
// it is reachable.
type ShardStatJSON struct {
	Shard int `json:"shard"`
	// Addr is the shard's current primary — the member ingest goes to.
	Addr string `json:"addr"`
	// Primary is that member's index within the replica set.
	Primary       int             `json:"primary"`
	Healthy       bool            `json:"healthy"`
	Error         string          `json:"error,omitempty"`
	Requests      int64           `json:"requests"`
	Errors        int64           `json:"errors"`
	Retries       int64           `json:"retries"`
	LastLatencyMS float64         `json:"last_latency_ms"`
	Stats         json.RawMessage `json:"stats,omitempty"`
	// Members reports the health loop's per-member view of the replica set.
	Members []MemberHealthJSON `json:"members,omitempty"`
}

// MemberHealthJSON is the router health loop's view of one replica-set
// member, as learned from its /readyz.
type MemberHealthJSON struct {
	Member    int    `json:"member"`
	Addr      string `json:"addr"`
	Primary   bool   `json:"primary"`
	Reachable bool   `json:"reachable"`
	Ready     bool   `json:"ready"`
	Mode      string `json:"mode,omitempty"`
	SealSeq   uint64 `json:"seal_seq"`
	WALOff    int64  `json:"wal_off"`
	Requests  int64  `json:"requests"`
	Errors    int64  `json:"errors"`
	Retries   int64  `json:"retries"`
	// Cause is the last probe's not-ready cause, empty when ready.
	Cause string `json:"cause,omitempty"`
}

// ShardStatsJSON is the `shard` section of a shard's GET /v1/stats.
type ShardStatsJSON struct {
	Index  int `json:"index"`
	Shards int `json:"shards"`
	// OwnershipRejections counts ingest records refused because the object
	// belongs to another shard — always a router or topology bug.
	OwnershipRejections int64 `json:"ownership_rejections"`
}

// DegradedJSON names the shard behind a degraded-mode 503.
type DegradedJSON struct {
	Shard int    `json:"shard"`
	Addr  string `json:"addr"`
	Cause string `json:"cause"`
}

// writeShardError writes the structured degraded-mode envelope: the standard
// "error" field plus a "degraded" object naming the unreachable shard, so
// operators and the cluster smoke test can identify the missing member
// without parsing the message.
func writeShardError(w http.ResponseWriter, se *shardError) {
	writeJSONStatus(w, http.StatusServiceUnavailable, struct {
		Error    string       `json:"error"`
		Degraded DegradedJSON `json:"degraded"`
	}{
		Error:    se.Error(),
		Degraded: DegradedJSON{Shard: se.index, Addr: se.addr, Cause: se.cause.Error()},
	})
}

// handleIngestRouted serves POST /v1/ingest on a router: validate the batch
// against the space (readIngest) so no shard applies a sub-batch of a bad
// one, split it by owning shard, fan it out, and render whichever envelope
// the composed outcome calls for (see Router.ingest).
func (s *Server) handleIngestRouted(w http.ResponseWriter, r *http.Request) {
	recs, _, ok := s.readIngest(w, r)
	if !ok {
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	status, body := s.router.ingest(ctx, recs)
	switch v := body.(type) {
	case error:
		if se, ok := isShardError(v); ok {
			writeShardError(w, se)
			return
		}
		errorJSON(w, status, "%v", v)
	case *IngestErrorResponse:
		writeJSONStatus(w, status, v)
	case RouterIngestResponse:
		s.recordsIngested.Add(int64(v.Ingested))
		if status == http.StatusOK {
			s.ingestRequests.Add(1)
		}
		writeJSONStatus(w, status, v)
	}
}

// handlePartial serves POST /v2/partial: the internal shard half of the
// distributed fan-in. It evaluates the local objects' per-object presence
// rows for one pinned-window query and answers them in the binary partial
// body (encodePartial); refusals stay JSON error envelopes. The router merges
// the shards' partials in canonical ascending-object order. Every member
// that holds records serves it (a standalone node is a valid 1-shard
// cluster); it is not a public API.
func (s *Server) handlePartial(w http.ResponseWriter, r *http.Request) {
	var req QueryV2
	if err := decodeBody(w, r, &req); err != nil {
		s.queryErrors.Add(1)
		errorJSON(w, http.StatusBadRequest, "bad partial request: %v", err)
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	end := tkplq.Time(-1)
	q, _, err := s.toQuery(ctx, req, &end)
	if err != nil {
		s.queryErrors.Add(1)
		errorJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Counted before evaluating: the rows reflect at least this many records
	// (the router's stale-replica check).
	records := s.sys.Table().Len()
	p, err := s.sys.DoPartial(ctx, q)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	body := encodePartial(p, records)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	s.queries.Add(1)
	_, _ = w.Write(body)
}

// handleSpan serves GET /v2/span: the shard table's time span, used by the
// router to resolve te == 0 windows cluster-wide.
func (s *Server) handleSpan(w http.ResponseWriter, r *http.Request) {
	// Count first: the span then reflects at least that many records.
	out := SpanResponse{Records: s.sys.Table().Len()}
	if lo, hi, ok := s.sys.Table().TimeSpan(); ok {
		out.Lo, out.Hi, out.OK = int64(lo), int64(hi), true
	}
	writeJSON(w, out)
}
