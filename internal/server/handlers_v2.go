package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"tkplq"
)

// QueryV2 is one query of POST /v2/query: the base shape plus per-query
// options and the presence object. The endpoint accepts either a single
// QueryV2 object (answered with one QueryResponse) or a JSON array of them
// (answered with an array, evaluated as one shared-work batch via
// System.DoBatch — queries over the same window perform the per-object data
// reduction once).
type QueryV2 struct {
	QueryRequest
	// OID is the object of a "presence" query.
	OID int64 `json:"oid"`
	// Workers overrides the engine worker pool for this query: 0 (the
	// engine's) to GOMAXPROCS. Results are bit-identical at every pool size.
	Workers int `json:"workers"`
	// NoCache bypasses the engine's window cache for this query.
	NoCache bool `json:"no_cache"`
	// NoCoalesce opts this query out of request coalescing.
	NoCoalesce bool `json:"no_coalesce"`
}

// toQuery converts one wire query to a tkplq.Query, applying the wire
// defaults (kind topk, algorithm bf, k 10, te = end of data, empty slocs =
// all S-locations). *end caches the request's "end of data" (negative until a
// member asks; see endOfData): a request resolves it at most once and hands
// every te == 0 member the same value, so members that should share a window
// do, and a router pays one /v2/span round however many members ask.
func (s *Server) toQuery(ctx context.Context, req QueryV2, end *tkplq.Time) (tkplq.Query, QueryV2, error) {
	if req.Kind == "" {
		req.Kind = "topk"
	}
	kind, ok := kinds[req.Kind]
	if !ok {
		return tkplq.Query{}, req, fmt.Errorf("unknown query kind %q (want topk, density, flow or presence)", req.Kind)
	}
	switch kind {
	case tkplq.KindTopK:
		if req.Algorithm == "" {
			req.Algorithm = "bf"
		}
		if req.K == 0 {
			req.K = 10
		}
	case tkplq.KindDensity:
		req.Algorithm = "" // density always runs the shared pass
		if req.K == 0 {
			req.K = 10
		}
	default:
		req.Algorithm = ""
		req.K = 0
	}
	var algo tkplq.Algorithm
	if req.Algorithm != "" {
		if algo, ok = algorithms[req.Algorithm]; !ok {
			return tkplq.Query{}, req, fmt.Errorf("unknown algorithm %q (want naive, nl or bf)", req.Algorithm)
		}
	}

	// More goroutines than procs cannot speed up a CPU-bound pass.
	if procs := runtime.GOMAXPROCS(0); req.Workers < 0 || req.Workers > procs {
		return tkplq.Query{}, req, fmt.Errorf("workers %d out of range: want 0 (the engine's pool) to %d (GOMAXPROCS)", req.Workers, procs)
	}

	// Validate ids here for every kind so the error names the wire field.
	numSLocs := s.sys.Space().NumSLocations()
	q := make([]tkplq.SLocID, 0, len(req.SLocs))
	for _, id := range req.SLocs {
		if id < 0 || id >= numSLocs {
			return tkplq.Query{}, req, fmt.Errorf("unknown S-location %d (space has %d)", id, numSLocs)
		}
		q = append(q, tkplq.SLocID(id))
	}
	if kind == tkplq.KindFlow || kind == tkplq.KindPresence {
		if len(req.SLocs) != 1 {
			return tkplq.Query{}, req, fmt.Errorf("%s requires exactly one S-location in slocs, got %d", req.Kind, len(req.SLocs))
		}
	} else if len(q) == 0 {
		q = s.sys.AllSLocations()
	}
	ts, te := tkplq.Time(req.Ts), tkplq.Time(req.Te)
	if te == 0 {
		if *end < 0 {
			hi, err := s.endOfData(ctx)
			if err != nil {
				return tkplq.Query{}, req, err
			}
			*end = hi
		}
		te = *end
	}
	if te < ts {
		return tkplq.Query{}, req, fmt.Errorf("empty window: te %d < ts %d", te, ts)
	}
	req.Te = int64(te)
	return tkplq.Query{
		Kind:              kind,
		Algorithm:         algo,
		K:                 req.K,
		Ts:                ts,
		Te:                te,
		SLocs:             q,
		OID:               tkplq.ObjectID(req.OID),
		Workers:           req.Workers,
		DisableCache:      req.NoCache,
		DisableCoalescing: req.NoCoalesce,
	}, req, nil
}

// renderResponse converts one engine response to the wire shape.
func (s *Server) renderResponse(req QueryV2, resp *tkplq.Response, elapsed time.Duration) QueryResponse {
	space := s.sys.Space()
	out := QueryResponse{
		Kind:      req.Kind,
		Algorithm: req.Algorithm,
		K:         req.K,
		Ts:        req.Ts,
		Te:        req.Te,
		Results:   make([]ResultJSON, 0, len(resp.Results)),
		Stats:     statsJSON(resp.Stats),
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
	}
	for _, re := range resp.Results {
		out.Results = append(out.Results, ResultJSON{
			SLoc: int(re.SLoc),
			Name: space.SLocation(re.SLoc).Name,
			Flow: re.Flow,
		})
	}
	return out
}

// handleQueryV2 serves POST /v2/query: a single query object, or an array of
// queries evaluated as one shared-work batch. Both are one convert → evaluate
// → render path; a single object is a batch of one answered without the
// array.
func (s *Server) handleQueryV2(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		s.queryErrors.Add(1)
		errorJSON(w, http.StatusBadRequest, "bad query request: %v", err)
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()

	trimmed := bytes.TrimLeft(body, " \t\r\n")
	single := len(trimmed) == 0 || trimmed[0] != '['
	reqs, what := make([]QueryV2, 1), "query"
	if single {
		err = strictUnmarshal(body, &reqs[0])
	} else {
		what = "batch"
		err = strictUnmarshal(body, &reqs)
	}
	if err != nil {
		s.queryErrors.Add(1)
		errorJSON(w, http.StatusBadRequest, "bad %s request: %v", what, err)
		return
	}
	if len(reqs) == 0 {
		s.queryErrors.Add(1)
		errorJSON(w, http.StatusBadRequest, "empty batch")
		return
	}
	queries := make([]tkplq.Query, len(reqs))
	end := tkplq.Time(-1)
	for i := range reqs {
		if queries[i], reqs[i], err = s.toQuery(ctx, reqs[i], &end); err != nil {
			if _, ok := isShardError(err); ok || single {
				s.writeQueryError(w, err)
				return
			}
			s.queryErrors.Add(1)
			errorJSON(w, http.StatusBadRequest, "batch query %d: %v", i, err)
			return
		}
	}
	started := time.Now()
	resps, err := s.evaluate(ctx, queries)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	elapsed := time.Since(started)
	out := make([]QueryResponse, len(resps))
	for i, resp := range resps {
		out[i] = s.renderResponse(reqs[i], resp, elapsed)
	}
	s.queries.Add(int64(len(reqs)))
	if single {
		writeJSON(w, &out[0])
		return
	}
	s.batches.Add(1)
	writeJSON(w, out)
}

// readBody reads the whole request body, refusing one over MaxBodyBytes.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return nil, fmt.Errorf("body exceeds %d bytes", tooLarge.Limit)
	}
	return body, err
}

// decodeBody strictly decodes the request body into v (strictUnmarshal),
// bounding its size. Unknown fields fail loudly so a typo'd option can never
// silently select a default, and trailing data fails so a second value is
// never silently dropped.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	body, err := readBody(w, r)
	if err != nil {
		return err
	}
	return strictUnmarshal(body, v)
}

// strictUnmarshal decodes JSON rejecting unknown fields and trailing data.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after JSON value")
	}
	return nil
}
