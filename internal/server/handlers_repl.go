package server

import (
	"errors"
	"net/http"
	"time"

	"tkplq/internal/repl"
)

// ReplConfig wires per-shard replication into the server: the primary side
// (Source, streaming the store to followers) and, on a member booted as a
// follower, the Follower whose promotion flips the serving mode.
type ReplConfig struct {
	// Source serves POST /v2/replicate. Required: a promoted follower
	// becomes a primary and must be able to feed its rejoining siblings.
	Source *repl.Source
	// Follower is non-nil when this member booted with -replica-of: the
	// server starts in follower mode (read-only, not ready until synced)
	// until POST /v2/promote.
	Follower *repl.Follower
	// Self is this member's advertised address (diagnostics).
	Self string
}

// ReadyResponse is the body of GET /readyz — readiness, as opposed to
// /healthz liveness: whether this member should be serving reads right now,
// with a structured cause when not. The router's health loop drives
// load-balancing and failover off it (mode, seal_seq, wal_off).
type ReadyResponse struct {
	Ready bool   `json:"ready"`
	Cause string `json:"cause,omitempty"`
	Role  string `json:"role"`
	// Mode is "primary" or "follower" on a replicated shard, empty
	// elsewhere.
	Mode string `json:"mode,omitempty"`
	// Synced reports a follower's caught-up bit (primaries are always
	// synced with themselves).
	Synced bool `json:"synced"`
	// SealSeq/WALOff is the member's durable position — the failover
	// choice's comparison key.
	SealSeq uint64 `json:"seal_seq"`
	WALOff  int64  `json:"wal_off"`
	Records int    `json:"records"`
}

// PromoteResponse is the body of POST /v2/promote.
type PromoteResponse struct {
	Mode string `json:"mode"`
	// Promoted is false when the member already was a primary (the call is
	// idempotent).
	Promoted bool   `json:"promoted"`
	SealSeq  uint64 `json:"seal_seq"`
	WALOff   int64  `json:"wal_off"`
}

// ReplicationStatsJSON is the `replication` section of GET /v1/stats on a
// replicated shard.
type ReplicationStatsJSON struct {
	Mode string `json:"mode"`
	Self string `json:"self,omitempty"`
	// Followers lists the connected followers' lag (primary mode).
	Followers []ReplFollowerJSON `json:"followers,omitempty"`
	// Upstream describes the replication link (follower mode).
	Upstream *ReplUpstreamJSON `json:"upstream,omitempty"`
}

// ReplFollowerJSON is one connected follower's session state.
type ReplFollowerJSON struct {
	ID                string  `json:"id"`
	AgeSeconds        float64 `json:"age_seconds"`
	SentFrames        int64   `json:"sent_frames"`
	SentBytes         int64   `json:"sent_bytes"`
	AckFrames         int64   `json:"ack_frames"`
	AckBytes          int64   `json:"ack_bytes"`
	LagFrames         int64   `json:"lag_frames"`
	LagBytes          int64   `json:"lag_bytes"`
	SealSeq           uint64  `json:"seal_seq"`
	WALOff            int64   `json:"wal_off"`
	LastAckAgeSeconds float64 `json:"last_ack_age_seconds"`
}

// ReplUpstreamJSON is a follower's view of its replication link.
type ReplUpstreamJSON struct {
	Primary               string  `json:"primary"`
	Connected             bool    `json:"connected"`
	Synced                bool    `json:"synced"`
	SealSeq               uint64  `json:"seal_seq"`
	WALOff                int64   `json:"wal_off"`
	AppliedFrames         int64   `json:"applied_frames"`
	AppliedBytes          int64   `json:"applied_bytes"`
	Reconnects            int64   `json:"reconnects"`
	FullResyncs           int64   `json:"full_resyncs"`
	LastContactAgeSeconds float64 `json:"last_contact_age_seconds"`
}

// isFollower reports whether this member is currently in follower mode
// (read-only; ingest, snapshot and compaction are refused).
func (s *Server) isFollower() bool { return s.following.Load() }

// writeFollowerRefusal is the structured 503 for a write endpoint hit on a
// follower: the member is healthy, just not the one that accepts writes.
func (s *Server) writeFollowerRefusal(w http.ResponseWriter, what string) {
	writeJSONStatus(w, http.StatusServiceUnavailable, struct {
		Error     string `json:"error"`
		Mode      string `json:"mode"`
		Following string `json:"following,omitempty"`
	}{
		Error:     what + " is refused on a follower (read-only replica); talk to the primary or the router",
		Mode:      "follower",
		Following: s.cfg.Replication.Follower.State().Primary,
	})
}

// handleReadyz serves GET /readyz. Liveness stays on /healthz ("is the
// process up"); readiness is "should traffic be routed here": a poisoned
// store or a follower that has not caught up answers 503 with a cause.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	out := ReadyResponse{Ready: true, Role: s.cfg.Role, Records: s.sys.Table().Len()}
	if s.cfg.Store != nil {
		if err := s.cfg.Store.Failed(); err != nil {
			out.Ready = false
			out.Cause = "store poisoned (restart to recover): " + err.Error()
		}
	}
	if rc := s.cfg.Replication; rc != nil {
		if s.isFollower() {
			out.Mode = "follower"
			st := rc.Follower.State()
			out.Synced = st.Synced
			out.SealSeq = st.SealSeq
			out.WALOff = st.WALOff
			if !st.Synced && out.Cause == "" {
				out.Ready = false
				out.Cause = "follower syncing (behind the primary's committed position)"
			}
		} else {
			out.Mode = "primary"
			out.Synced = true
			out.SealSeq, out.WALOff = s.cfg.Store.Log().Position()
		}
	}
	code := http.StatusOK
	if !out.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSONStatus(w, code, out)
}

// lazyWriter defers the 200 status until the stream's first byte, so a
// Serve error raised before anything was written can still pick its own
// status code.
type lazyWriter struct {
	w     http.ResponseWriter
	wrote bool
}

func (lw *lazyWriter) Write(p []byte) (int, error) {
	lw.wrote = true
	return lw.w.Write(p)
}

// handleReplicate serves POST /v2/replicate: one follower's long-lived
// replication stream. The response outlives every server timeout — it ends
// when the link drops, the session is superseded, or the follower stops
// acking.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if s.isFollower() {
		errorJSON(w, http.StatusServiceUnavailable, "this member is a follower; replicate from the primary")
		return
	}
	var h repl.Handshake
	if err := decodeBody(w, r, &h); err != nil {
		errorJSON(w, http.StatusBadRequest, "bad handshake: %v", err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		errorJSON(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	// The stream is the one response the server's WriteTimeout must never
	// cut: lift the connection deadline, exactly as the SSE handler does.
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Cache-Control", "no-store")

	lw := &lazyWriter{w: w}
	err := s.cfg.Replication.Source.Serve(r.Context(), lw, func() { fl.Flush() }, h)
	if err != nil && !lw.wrote {
		if errors.Is(err, repl.ErrBootstrapRequired) {
			errorJSON(w, http.StatusConflict, "%v", err)
			return
		}
		errorJSON(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if err != nil {
		s.cfg.Logf("server: replication stream ended: %v", err)
	}
}

// handleReplicateAck serves POST /v2/replicate/ack: a follower's
// out-of-band progress report.
func (s *Server) handleReplicateAck(w http.ResponseWriter, r *http.Request) {
	var a repl.Ack
	if err := decodeBody(w, r, &a); err != nil {
		errorJSON(w, http.StatusBadRequest, "bad ack: %v", err)
		return
	}
	s.cfg.Replication.Source.Ack(a)
	w.WriteHeader(http.StatusNoContent)
}

// handlePromote serves POST /v2/promote: stop following and accept writes.
// Idempotent — promoting a primary reports its position and changes
// nothing. The router calls this during failover; operators can too.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if !s.isFollower() {
		out := PromoteResponse{Mode: "primary"}
		out.SealSeq, out.WALOff = s.cfg.Store.Log().Position()
		writeJSON(w, out)
		return
	}
	seq, off := s.cfg.Replication.Follower.Promote()
	s.following.Store(false)
	s.cfg.Logf("server: promoted to primary at (seal %d, wal off %d)", seq, off)
	writeJSON(w, PromoteResponse{Mode: "primary", Promoted: true, SealSeq: seq, WALOff: off})
}

// replicationStats builds the `replication` stats section, or nil when
// replication is not configured.
func (s *Server) replicationStats() *ReplicationStatsJSON {
	rc := s.cfg.Replication
	if rc == nil {
		return nil
	}
	out := &ReplicationStatsJSON{Self: rc.Self}
	if s.isFollower() {
		out.Mode = "follower"
		st := rc.Follower.State()
		up := &ReplUpstreamJSON{
			Primary:       st.Primary,
			Connected:     st.Connected,
			Synced:        st.Synced,
			SealSeq:       st.SealSeq,
			WALOff:        st.WALOff,
			AppliedFrames: st.Frames,
			AppliedBytes:  st.Bytes,
			Reconnects:    st.Reconnects,
			FullResyncs:   st.FullResyncs,
		}
		if !st.LastContact.IsZero() {
			up.LastContactAgeSeconds = time.Since(st.LastContact).Seconds()
		}
		out.Upstream = up
		return out
	}
	out.Mode = "primary"
	for _, f := range rc.Source.Status() {
		out.Followers = append(out.Followers, ReplFollowerJSON{
			ID:                f.ID,
			AgeSeconds:        f.Age.Seconds(),
			SentFrames:        f.SentFrames,
			SentBytes:         f.SentBytes,
			AckFrames:         f.AckFrames,
			AckBytes:          f.AckBytes,
			LagFrames:         f.LagFrames,
			LagBytes:          f.LagBytes,
			SealSeq:           f.SealSeq,
			WALOff:            f.WALOff,
			LastAckAgeSeconds: f.LastAckAge.Seconds(),
		})
	}
	return out
}
