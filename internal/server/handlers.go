package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"tkplq"
)

// QueryRequest is the base of one POST /v2/query query (QueryV2 embeds it).
type QueryRequest struct {
	// Kind selects the query: "topk" (default), "density", "flow" or
	// "presence".
	Kind string `json:"kind"`
	// Algorithm selects the TkPLQ search: "naive", "nl" or "bf" (default).
	// Ignored for density and flow.
	Algorithm string `json:"algorithm"`
	// K is the result count; 10 when omitted. Ignored for flow.
	K int `json:"k"`
	// Ts and Te bound the query window [ts, te] in seconds. Te == 0 selects
	// the end of the table's time span.
	Ts int64 `json:"ts"`
	Te int64 `json:"te"`
	// SLocs is the query set of S-location ids; empty selects every
	// S-location of the space. Flow requires exactly one.
	SLocs []int `json:"slocs"`
}

// ResultJSON is one ranked entry of a query response.
type ResultJSON struct {
	SLoc int     `json:"sloc"`
	Name string  `json:"name"`
	Flow float64 `json:"flow"`
}

// StatsJSON mirrors tkplq.Stats for the wire.
type StatsJSON struct {
	ObjectsTotal       int   `json:"objects_total"`
	ObjectsComputed    int   `json:"objects_computed"`
	PathsEnumerated    int64 `json:"paths_enumerated"`
	BudgetFallbacks    int   `json:"budget_fallbacks"`
	SampleSetsOriginal int64 `json:"sample_sets_original"`
	SampleSetsReduced  int64 `json:"sample_sets_reduced"`
	HeapPops           int   `json:"heap_pops"`
	SequenceBreaks     int64 `json:"sequence_breaks"`
	Workers            int   `json:"workers"`
	CacheHits          int64 `json:"cache_hits"`
	CacheMisses        int64 `json:"cache_misses"`
	Coalesced          int64 `json:"coalesced"`
	SharedBatch        int   `json:"shared_batch,omitempty"`
}

func statsJSON(st tkplq.Stats) StatsJSON {
	return StatsJSON{
		ObjectsTotal:       st.ObjectsTotal,
		ObjectsComputed:    st.ObjectsComputed,
		PathsEnumerated:    st.PathsEnumerated,
		BudgetFallbacks:    st.BudgetFallbacks,
		SampleSetsOriginal: st.SampleSetsOriginal,
		SampleSetsReduced:  st.SampleSetsReduced,
		HeapPops:           st.HeapPops,
		SequenceBreaks:     st.SequenceBreaks,
		Workers:            st.Workers,
		CacheHits:          st.CacheHits,
		CacheMisses:        st.CacheMisses,
		Coalesced:          st.Coalesced,
		SharedBatch:        st.SharedBatch,
	}
}

// QueryResponse is the answer to one POST /v2/query query: the whole body for
// a single query object, one element of the array for a batch.
type QueryResponse struct {
	Kind      string       `json:"kind"`
	Algorithm string       `json:"algorithm,omitempty"`
	K         int          `json:"k,omitempty"`
	Ts        int64        `json:"ts"`
	Te        int64        `json:"te"`
	Results   []ResultJSON `json:"results"`
	Stats     StatsJSON    `json:"stats"`
	ElapsedMS float64      `json:"elapsed_ms"`
}

// IngestRequest is the body of POST /v1/ingest.
type IngestRequest struct {
	Records []RecordJSON `json:"records"`
}

// RecordJSON is one uncertain positioning record on the wire.
type RecordJSON struct {
	OID     int64        `json:"oid"`
	T       int64        `json:"t"`
	Samples []SampleJSON `json:"samples"`
}

// SampleJSON is one probabilistic sample: the object is at P-location PLoc
// with probability Prob.
type SampleJSON struct {
	PLoc int     `json:"ploc"`
	Prob float64 `json:"prob"`
}

// IngestResponse is the body of a successful POST /v1/ingest.
type IngestResponse struct {
	Ingested int `json:"ingested"`
	// Records is the table's record count after the batch.
	Records int `json:"records"`
}

// IngestErrorResponse is the structured error envelope of a rejected ingest
// batch: the standard "error" field plus the failing record's position.
type IngestErrorResponse struct {
	Error string `json:"error"`
	Index int    `json:"index"`
	OID   int64  `json:"oid"`
	T     int64  `json:"t"`
}

// SnapshotResponse is the body of a successful POST /v1/snapshot.
type SnapshotResponse struct {
	// SnapshotSeq is the newest sealed partition's sequence number.
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// Records is the table's record count.
	Records int `json:"records"`
	// ElapsedMS is the partition write + log rotation time.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// WALStatsJSON is the `wal` section of GET /v1/stats, present when the
// daemon runs with a data directory: the head log's counters, where
// "snapshot" means a seal (snapshot_seq is the newest sealed partition).
type WALStatsJSON struct {
	SnapshotSeq        uint64 `json:"snapshot_seq"`
	Frames             int64  `json:"frames"`
	Records            int64  `json:"records"`
	Bytes              int64  `json:"bytes"`
	Fsyncs             int64  `json:"fsyncs"`
	Snapshots          int64  `json:"snapshots"`
	RecordsSinceSnap   int64  `json:"records_since_snapshot"`
	RecoveredRecords   int64  `json:"recovered_records"`
	ReplayedFrames     int64  `json:"replayed_frames"`
	ReplayedRecords    int64  `json:"replayed_records"`
	TornBytesDropped   int64  `json:"torn_bytes_dropped"`
	CorruptFrames      int64  `json:"corrupt_frames"`
	SnapshotsRequested int64  `json:"snapshots_requested"`
}

// StorageStatsJSON is the `storage` section of GET /v1/stats, present when
// the daemon runs with a data directory: the sealed partition set plus the
// observables behind the store's guarantees — MaterializedRecords stays 0
// across a restart (recovery maps partitions without decoding them) and
// grows only by what window queries actually read: a slab build decodes each
// of its records once, and a query decodes only the runs it cuts or joins.
type StorageStatsJSON struct {
	SealSeq             uint64 `json:"seal_seq"`
	Partitions          int    `json:"partitions"`
	SealedRecords       int64  `json:"sealed_records"`
	SealedBytes         int64  `json:"sealed_bytes"`
	Seals               int64  `json:"seals"`
	MaterializedRecords int64  `json:"materialized_records"`
	// Compactions counts committed compactions; CompactedPartitions the
	// input partitions they retired.
	Compactions         int64 `json:"compactions"`
	CompactedPartitions int64 `json:"compacted_partitions"`
	// The window_* fields describe the engine's cached windows: whole
	// materialized query windows pinned by the table's identity for them
	// (sealed partitions plus head count). A window hit answers a repeated
	// window without touching the partition files at all —
	// materialized_records stays flat.
	WindowEntries int   `json:"window_entries"`
	WindowHits    int64 `json:"window_hits"`
	WindowMisses  int64 `json:"window_misses"`
	WindowBytes   int64 `json:"window_bytes"`
	// SlabBytes estimates the engine's slabs: Algorithm 1's stored runs over
	// the sealed records queries have read, built once per record and shared
	// by every window over it; window_bytes does not count them.
	SlabBytes int64 `json:"slab_bytes"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	// Role is the serving mode: "standalone", "shard" or "router".
	Role string `json:"role"`
	// Shard is present in the shard role: this process's place in the
	// topology and its ownership-rejection counter.
	Shard *ShardStatsJSON `json:"shard,omitempty"`
	// Cluster is present in the router role: fan-out counters and every
	// shard's health + embedded stats.
	Cluster *ClusterStatsJSON `json:"cluster,omitempty"`
	Engine  struct {
		CacheEntries int   `json:"cache_entries"`
		CacheHits    int64 `json:"cache_hits"`
		CacheMisses  int64 `json:"cache_misses"`
		Coalesced    int64 `json:"coalesced"`
		Flights      int64 `json:"flights"`
	} `json:"engine"`
	Server struct {
		UptimeSeconds   float64 `json:"uptime_seconds"`
		Queries         int64   `json:"queries"`
		QueryErrors     int64   `json:"query_errors"`
		CanceledQueries int64   `json:"canceled_queries"`
		BatchRequests   int64   `json:"batch_requests"`
		IngestRequests  int64   `json:"ingest_requests"`
		RecordsIngested int64   `json:"records_ingested"`
		Goroutines      int     `json:"goroutines"`
	} `json:"server"`
	Table struct {
		Records int `json:"records"`
		Objects int `json:"objects"`
	} `json:"table"`
	Space struct {
		SLocations int `json:"slocations"`
		Partitions int `json:"partitions"`
	} `json:"space"`
	// Subscriptions reports the /v2/subscribe surface: live and lifetime
	// stream counts, SSE events written, and every live monitor feed.
	Subscriptions struct {
		Active      int64             `json:"active"`
		Total       int64             `json:"total"`
		UpdatesSent int64             `json:"updates_sent"`
		Monitors    []MonitorStatJSON `json:"monitors"`
	} `json:"subscriptions"`
	// WAL and Storage are present only when the server fronts a durable
	// store.
	WAL     *WALStatsJSON     `json:"wal,omitempty"`
	Storage *StorageStatsJSON `json:"storage,omitempty"`
	// Replication is present on replicated members: follower lag on a
	// primary, the upstream link on a follower.
	Replication *ReplicationStatsJSON `json:"replication,omitempty"`
}

// MonitorStatJSON describes one live monitor feed in GET /v1/stats.
type MonitorStatJSON struct {
	// QuerySize is the size of the subscribed S-location set.
	QuerySize int   `json:"query_size"`
	K         int   `json:"k"`
	Window    int64 `json:"window"`
	// Subscribers is the number of live subscriptions coalesced onto this
	// monitor.
	Subscribers int `json:"subscribers"`
	// Evals counts incremental evaluations; DirtyObjects the object summaries
	// recomputed across them.
	Evals        int64 `json:"evals"`
	DirtyObjects int64 `json:"dirty_objects"`
	// Updates counts pushed ranking changes; Observed records announced to
	// the monitor.
	Updates  int64 `json:"updates"`
	Observed int   `json:"observed"`
}

// writeJSONStatus writes a JSON body with an explicit status code.
func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// errorJSON writes a JSON error body with the status code.
func errorJSON(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSONStatus(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeJSON writes a 200 JSON body.
func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

var algorithms = map[string]tkplq.Algorithm{
	"naive": tkplq.Naive,
	"nl":    tkplq.NestedLoop,
	"bf":    tkplq.BestFirst,
}

var kinds = map[string]tkplq.QueryKind{
	"topk":     tkplq.KindTopK,
	"density":  tkplq.KindDensity,
	"flow":     tkplq.KindFlow,
	"presence": tkplq.KindPresence,
}

// writeQueryError maps an evaluation error to the JSON envelope: 503 for a
// spent request budget, a vanished client or an unreachable shard (the
// degraded-mode envelope naming it), 400 for validation failures. The
// context cases are checked first: a fan-out cut short because this request
// ran out of budget is a timeout, not a shard failure.
func (s *Server) writeQueryError(w http.ResponseWriter, err error) {
	s.queryErrors.Add(1)
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.canceled.Add(1)
		errorJSON(w, http.StatusServiceUnavailable, "request timed out")
	case errors.Is(err, context.Canceled):
		// The client is gone; the write is best-effort but the counter and
		// log line still record that the evaluation was cut short.
		s.canceled.Add(1)
		errorJSON(w, http.StatusServiceUnavailable, "request canceled")
	default:
		if se, ok := isShardError(err); ok {
			writeShardError(w, se)
			return
		}
		errorJSON(w, http.StatusBadRequest, "%v", err)
	}
}

// readIngest is the step every POST /v1/ingest starts with: decode the
// batch, refuse an empty one, and validate it against the space while
// converting it. A bad P-location is refused with the structured rejection
// naming the record — the shape System.Ingest raises — so a router refuses a
// batch before any shard applies a sub-batch of it. On a bad batch it has
// written the 400 and reports false.
func (s *Server) readIngest(w http.ResponseWriter, r *http.Request) ([]RecordJSON, []tkplq.Record, bool) {
	var req IngestRequest
	if err := decodeBody(w, r, &req); err != nil {
		errorJSON(w, http.StatusBadRequest, "bad ingest request: %v", err)
		return nil, nil, false
	}
	if len(req.Records) == 0 {
		errorJSON(w, http.StatusBadRequest, "empty batch")
		return nil, nil, false
	}
	recs := make([]tkplq.Record, 0, len(req.Records))
	numPLocs := s.sys.Space().NumPLocations()
	for i, rj := range req.Records {
		samples := make(tkplq.SampleSet, 0, len(rj.Samples))
		for _, sj := range rj.Samples {
			if sj.PLoc < 0 || sj.PLoc >= numPLocs {
				writeJSON400Ingest(w, &tkplq.IngestError{
					Index: i, OID: tkplq.ObjectID(rj.OID), T: tkplq.Time(rj.T),
					Err: fmt.Errorf("unknown P-location %d", sj.PLoc),
				})
				return nil, nil, false
			}
			samples = append(samples, tkplq.Sample{Loc: tkplq.PLocID(sj.PLoc), Prob: sj.Prob})
		}
		recs = append(recs, tkplq.Record{
			OID:     tkplq.ObjectID(rj.OID),
			T:       tkplq.Time(rj.T),
			Samples: samples,
		})
	}
	return req.Records, recs, true
}

// handleIngest serves POST /v1/ingest on a member that holds records.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.isFollower() {
		// A follower's table is the primary's replicated WAL and nothing
		// else; a direct write here would diverge it from the primary
		// byte-for-byte and poison every bit-identity guarantee.
		s.writeFollowerRefusal(w, "ingest")
		return
	}
	_, recs, ok := s.readIngest(w, r)
	if !ok {
		return
	}
	if s.cfg.Role == RoleShard {
		// A shard only ever accepts its own partition: a record for a
		// foreign object means the router (or an operator talking to the
		// wrong port) is about to split that object's sequence across
		// shards, which would corrupt every flow it contributes to.
		for i, rec := range recs {
			if owner := s.cfg.Topology.ShardOf(rec.OID); owner != s.cfg.ShardIndex {
				s.ownershipRejects.Add(1)
				writeJSON400Ingest(w, &tkplq.IngestError{
					Index: i, OID: rec.OID, T: rec.T,
					Err: fmt.Errorf("object %d is owned by shard %d, not this shard %d", rec.OID, owner, s.cfg.ShardIndex),
				})
				return
			}
		}
	}
	if err := s.sys.Ingest(recs); err != nil {
		var ie *tkplq.IngestError
		if errors.As(err, &ie) {
			writeJSON400Ingest(w, ie)
			return
		}
		errorJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.ingestRequests.Add(1)
	s.recordsIngested.Add(int64(len(recs)))
	// The count trigger. Lock-free probe: this runs on every ingest and must
	// not serialize behind the store mutex AppendBatch holds across its fsync.
	if st := s.cfg.Store; st != nil && s.cfg.SnapshotEvery > 0 && st.RecordsSinceSnapshot() >= int64(s.cfg.SnapshotEvery) {
		s.autoSnapshot("count")
	}
	writeJSON(w, IngestResponse{Ingested: len(recs), Records: s.sys.Table().Len()})
}

// autoSnapshot seals the head in the background for a trigger (count or
// periodic). At most one automatic seal runs at a time, and a trigger that
// finds one running does nothing; a failure is logged and retried by the
// next trigger.
func (s *Server) autoSnapshot(trigger string) {
	if s.isFollower() {
		// On a follower, seals happen only where the replication stream says
		// they did on the primary — a local auto-seal would cut partitions
		// at different boundaries and break byte-identity.
		return
	}
	select {
	case s.autoSeal <- struct{}{}: // released when the seal ends; Shutdown waits for that
	default:
		return
	}
	go func() {
		defer func() { <-s.autoSeal }()
		if err := s.sys.Snapshot(); err != nil {
			s.cfg.Logf("server: %s auto-snapshot: %v", trigger, err)
			return
		}
		s.snapshots.Add(1)
		s.cfg.Logf("server: %s auto-snapshot committed (seq %d)", trigger, s.cfg.Store.Log().Seq())
	}()
}

// handleSnapshot serves POST /v1/snapshot: an on-demand seal of the head.
// Only a member with a durable store serves it (see New).
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.isFollower() {
		s.writeFollowerRefusal(w, "snapshot")
		return
	}
	started := time.Now()
	if err := s.sys.Snapshot(); err != nil {
		errorJSON(w, http.StatusInternalServerError, "snapshot: %v", err)
		return
	}
	s.snapshots.Add(1)
	writeJSON(w, SnapshotResponse{
		SnapshotSeq: s.cfg.Store.Log().Seq(),
		Records:     s.sys.Table().Len(),
		ElapsedMS:   float64(time.Since(started).Microseconds()) / 1000,
	})
}

// CompactResponse is the body of a successful POST /v1/compact. A zero
// Inputs means the size-tiered policy found nothing worth merging — the
// request succeeded and did nothing.
type CompactResponse struct {
	// Inputs is the number of partitions merged (0 = no-op).
	Inputs int `json:"inputs"`
	// Records and Bytes describe the merged output partition.
	Records int64 `json:"records"`
	Bytes   int64 `json:"bytes"`
	// SeqLo and SeqHi are the seal-sequence range the output covers.
	SeqLo uint64 `json:"seq_lo"`
	SeqHi uint64 `json:"seq_hi"`
	// ElapsedMS is the merge + commit + swap time.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// handleCompact serves POST /v1/compact: one on-demand, policy-driven
// partition compaction. Only a member with a durable store serves it (see
// New).
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if s.isFollower() {
		// Compaction rewrites the partition file set; a follower's must
		// stay a byte-for-byte copy of what the primary shipped.
		s.writeFollowerRefusal(w, "compaction")
		return
	}
	started := time.Now()
	res, err := s.cfg.Store.Compact()
	if err != nil {
		errorJSON(w, http.StatusInternalServerError, "compact: %v", err)
		return
	}
	writeJSON(w, CompactResponse{
		Inputs:    res.Inputs,
		Records:   res.Records,
		Bytes:     res.Bytes,
		SeqLo:     res.SeqLo,
		SeqHi:     res.SeqHi,
		ElapsedMS: float64(time.Since(started).Microseconds()) / 1000,
	})
}

// writeJSON400Ingest writes the structured rejection envelope for one
// *tkplq.IngestError.
func writeJSON400Ingest(w http.ResponseWriter, ie *tkplq.IngestError) {
	writeJSONStatus(w, http.StatusBadRequest, IngestErrorResponse{
		Error: ie.Error(),
		Index: ie.Index,
		OID:   int64(ie.OID),
		T:     int64(ie.T),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var out StatsResponse
	out.Role = s.cfg.Role
	if s.cfg.Role == RoleShard {
		out.Shard = &ShardStatsJSON{
			Index:               s.cfg.ShardIndex,
			Shards:              s.cfg.Topology.NumShards(),
			OwnershipRejections: s.ownershipRejects.Load(),
		}
	}
	if s.router != nil {
		ctx, cancel := s.requestContext(r)
		defer cancel()
		cluster := s.router.clusterStats(ctx)
		out.Cluster = &cluster
	}
	cs := s.sys.CacheStats()
	out.Engine.CacheEntries = cs.Entries
	out.Engine.CacheHits = cs.Hits
	out.Engine.CacheMisses = cs.Misses
	out.Engine.Coalesced = cs.Coalesced
	out.Engine.Flights = cs.Flights
	out.Server.UptimeSeconds = time.Since(s.started).Seconds()
	out.Server.Queries = s.queries.Load()
	out.Server.QueryErrors = s.queryErrors.Load()
	out.Server.CanceledQueries = s.canceled.Load()
	out.Server.BatchRequests = s.batches.Load()
	out.Server.IngestRequests = s.ingestRequests.Load()
	out.Server.RecordsIngested = s.recordsIngested.Load()
	out.Server.Goroutines = runtime.NumGoroutine()
	out.Table.Records = s.sys.Table().Len()
	out.Table.Objects = len(s.sys.Table().Objects())
	out.Space.SLocations = s.sys.Space().NumSLocations()
	out.Space.Partitions = s.sys.Space().NumPartitions()
	out.Subscriptions.Active = s.subsActive.Load()
	out.Subscriptions.Total = s.subsTotal.Load()
	out.Subscriptions.UpdatesSent = s.subUpdates.Load()
	out.Subscriptions.Monitors = make([]MonitorStatJSON, 0)
	for _, ms := range s.sys.MonitorStats() {
		out.Subscriptions.Monitors = append(out.Subscriptions.Monitors, MonitorStatJSON{
			QuerySize:    len(ms.Query),
			K:            ms.K,
			Window:       int64(ms.Window),
			Subscribers:  ms.Subscribers,
			Evals:        ms.Evals,
			DirtyObjects: ms.DirtyObjects,
			Updates:      ms.Updates,
			Observed:     ms.Observed,
		})
	}
	if s.cfg.Store != nil {
		ps := s.cfg.Store.Stats()
		out.Storage = &StorageStatsJSON{
			SealSeq:             ps.Seq,
			Partitions:          ps.Partitions,
			SealedRecords:       ps.SealedRecords,
			SealedBytes:         ps.SealedBytes,
			Seals:               ps.Seals,
			MaterializedRecords: ps.MaterializedRecords,
			Compactions:         ps.Compactions,
			CompactedPartitions: ps.CompactedPartitions,
			WindowEntries:       cs.WindowEntries,
			WindowHits:          cs.WindowHits,
			WindowMisses:        cs.WindowMisses,
			WindowBytes:         cs.WindowBytes,
			SlabBytes:           cs.SlabBytes,
		}
		ws := ps.WAL
		out.WAL = &WALStatsJSON{
			SnapshotSeq:        ws.SnapshotSeq,
			Frames:             ws.Frames,
			Records:            ws.Records,
			Bytes:              ws.Bytes,
			Fsyncs:             ws.Fsyncs,
			Snapshots:          ws.Snapshots,
			RecordsSinceSnap:   ws.SinceSnapshot,
			RecoveredRecords:   ws.RecoveredRecords,
			ReplayedFrames:     ws.ReplayedFrames,
			ReplayedRecords:    ws.ReplayedRecords,
			TornBytesDropped:   ws.TornBytes,
			CorruptFrames:      ws.CorruptFrames,
			SnapshotsRequested: s.snapshots.Load(),
		}
	}
	out.Replication = s.replicationStats()
	writeJSON(w, out)
}

// handleHealthz is pure liveness — "the process is up and serving HTTP".
// Routing decisions belong to /readyz, which is allowed to say no (poisoned
// store, syncing follower) while the process is perfectly alive.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"status":  "ok",
		"role":    s.cfg.Role,
		"records": s.sys.Table().Len(),
	})
}
