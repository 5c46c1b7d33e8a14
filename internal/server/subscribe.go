package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"tkplq"
)

// DefaultSSEHeartbeat paces the comment heartbeats of /v2/subscribe when
// Config.SSEHeartbeat is zero.
const DefaultSSEHeartbeat = 15 * time.Second

// UpdateJSON is one pushed ranking change on the /v2/subscribe stream,
// delivered as the data of an SSE "update" event.
type UpdateJSON struct {
	// Seq numbers the feed's pushed changes; gaps correspond to updates this
	// subscriber lost to conflation (see Dropped).
	Seq uint64 `json:"seq"`
	// Ts and Te are the evaluated sliding window.
	Ts int64 `json:"ts"`
	Te int64 `json:"te"`
	// Results is the full current top-k (each update supersedes the last).
	Results []ResultJSON `json:"results"`
	// Records is the table record count this evaluation reflects.
	Records int `json:"records"`
	// Stats describes the incremental evaluation behind this update.
	Stats StatsJSON `json:"stats"`
	// Dropped is the total number of updates this subscriber has lost to
	// conflation so far.
	Dropped int64 `json:"dropped,omitempty"`
}

// subscribeQuery parses the /v2/subscribe query parameters into a
// subscription query: window (required, seconds), k (default 10), slocs
// (comma-separated ids, empty = all). no_coalesce=true is passed on for
// System.Subscribe to refuse: identical subscriptions always share a monitor.
func (s *Server) subscribeQuery(r *http.Request) (tkplq.Query, error) {
	params := r.URL.Query()
	window, err := strconv.ParseInt(params.Get("window"), 10, 64)
	if err != nil || window <= 0 {
		return tkplq.Query{}, fmt.Errorf("window must be a positive integer of seconds, got %q", params.Get("window"))
	}
	k := 10
	if v := params.Get("k"); v != "" {
		if k, err = strconv.Atoi(v); err != nil || k <= 0 {
			return tkplq.Query{}, fmt.Errorf("k must be a positive integer, got %q", v)
		}
	}
	var slocs []tkplq.SLocID
	if v := params.Get("slocs"); v != "" {
		numSLocs := s.sys.Space().NumSLocations()
		for _, part := range strings.Split(v, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return tkplq.Query{}, fmt.Errorf("bad S-location id %q in slocs", part)
			}
			if id < 0 || id >= numSLocs {
				return tkplq.Query{}, fmt.Errorf("unknown S-location %d (space has %d)", id, numSLocs)
			}
			slocs = append(slocs, tkplq.SLocID(id))
		}
	} else {
		slocs = s.sys.AllSLocations()
	}
	return tkplq.Query{
		Kind:              tkplq.KindTopK,
		K:                 k,
		Window:            tkplq.Time(window),
		SLocs:             slocs,
		DisableCoalescing: params.Get("no_coalesce") == "true",
	}, nil
}

// handleSubscribe serves GET /v2/subscribe: a Server-Sent Events stream of
// ranking changes. Each change arrives as an "update" event whose data is an
// UpdateJSON; the first event is the current snapshot. Identical
// subscriptions share one incremental monitor (System.Subscribe coalescing).
// The stream runs until the client disconnects — the per-request evaluation
// budget does not apply — with comment heartbeats (Config.SSEHeartbeat)
// keeping intermediaries from timing the connection out.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		errorJSON(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	q, err := s.subscribeQuery(r)
	if err != nil {
		s.queryErrors.Add(1)
		errorJSON(w, http.StatusBadRequest, "bad subscribe request: %v", err)
		return
	}
	// The subscription lives as long as the client connection: r.Context(),
	// not the per-request budget, is the cancellation source.
	sub, err := s.sys.Subscribe(r.Context(), q)
	if err != nil {
		s.queryErrors.Add(1)
		errorJSON(w, http.StatusBadRequest, "bad subscribe request: %v", err)
		return
	}
	defer sub.Close()

	// Escape the server-wide write timeout, which is sized for one-shot
	// request/response cycles and would sever a healthy stream.
	_ = http.NewResponseController(w).SetWriteDeadline(time.Time{})
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	s.subsTotal.Add(1)
	s.subsActive.Add(1)
	defer s.subsActive.Add(-1)

	heartbeat := s.cfg.SSEHeartbeat
	if heartbeat <= 0 {
		heartbeat = DefaultSSEHeartbeat
	}
	ticker := time.NewTicker(heartbeat)
	defer ticker.Stop()

	space := s.sys.Space()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case u, ok := <-sub.Updates():
			if !ok {
				return // feed shut down underneath us
			}
			out := UpdateJSON{
				Seq:     u.Seq,
				Ts:      int64(u.Ts),
				Te:      int64(u.Te),
				Results: make([]ResultJSON, 0, len(u.Results)),
				Records: u.Records,
				Stats:   statsJSON(u.Stats),
				Dropped: u.Dropped,
			}
			for _, re := range u.Results {
				out.Results = append(out.Results, ResultJSON{
					SLoc: int(re.SLoc),
					Name: space.SLocation(re.SLoc).Name,
					Flow: re.Flow,
				})
			}
			data, err := json.Marshal(out)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: update\ndata: %s\n\n", data); err != nil {
				return
			}
			// Count before flushing: a client that has read the event must
			// find it in /v1/stats.
			s.subUpdates.Add(1)
			flusher.Flush()
		}
	}
}
