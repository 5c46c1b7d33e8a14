package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"tkplq/internal/core"
	"tkplq/internal/repl"
)

// DefaultShardTimeout bounds one router→shard attempt when
// Config.ShardTimeout is zero. The retry policy's worst-case schedule must
// fit inside the router's own request budget, so this is deliberately far
// below DefaultRequestTimeout.
const DefaultShardTimeout = 10 * time.Second

// Member modes as learned from /readyz probes.
const (
	memberModeUnknown int32 = iota
	memberModePrimary
	memberModeFollower
)

// shardError is a failed router→shard call: which shard, where it lives,
// and why it failed. The router surfaces it as the structured degraded-mode
// 503 envelope naming the shard (writeShardError), so an operator — or the
// cluster smoke test — can see exactly which member is missing.
type shardError struct {
	index  int
	addr   string
	status int // HTTP status of the refusal; 0 for transport failures
	cause  error
}

func (e *shardError) Error() string {
	return fmt.Sprintf("shard %d (%s) unavailable: %v", e.index, e.addr, e.cause)
}

func (e *shardError) Unwrap() error { return e.cause }

// retryableShardError reports whether err is worth retrying on another
// replica: transport failures and 5xx refusals (member down, restarting,
// mid-crash, or a follower refusing a write-ish call). A 4xx means the
// request itself is bad everywhere.
func retryableShardError(err error) bool {
	se, ok := isShardError(err)
	if !ok {
		return false
	}
	return se.status == 0 || se.status >= 500
}

// shardClient is the router's HTTP client for one replica-set member.
// Every call runs under the caller's context capped by the per-attempt
// timeout; it performs exactly one attempt — retrying across the replica
// set under the shared backoff policy is the router's job (readMember).
// Ingest is never retried by anyone: a response lost after the member
// applied the batch must not be re-sent, or it would hold duplicate
// records.
type shardClient struct {
	shard   int
	member  int
	addr    string // host:port
	base    string // http://host:port
	hc      *http.Client
	timeout time.Duration

	// Health-loop state (written by probe, read by the request paths).
	reachable atomic.Bool
	ready     atomic.Bool
	modeVal   atomic.Int32 // memberMode*
	sealSeq   atomic.Uint64
	walOff    atomic.Int64
	cause     atomic.Pointer[string] // last probe's not-ready cause

	requests    atomic.Int64
	errs        atomic.Int64
	retried     atomic.Int64
	lastLatency atomic.Int64 // microseconds
}

func newShardClient(shard, member int, addr string, timeout time.Duration) *shardClient {
	if timeout <= 0 {
		timeout = DefaultShardTimeout
	}
	return &shardClient{
		shard:  shard,
		member: member,
		addr:   addr,
		base:   "http://" + addr,
		hc: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        16,
				MaxIdleConnsPerHost: 16,
				IdleConnTimeout:     90 * time.Second,
			},
		},
		timeout: timeout,
	}
}

// err wraps a transport-level failure with the member's identity.
func (c *shardClient) err(cause error) *shardError {
	return c.errAt(0, cause)
}

// errAt wraps a failure carrying the refusing status code (0 = transport).
func (c *shardClient) errAt(status int, cause error) *shardError {
	c.errs.Add(1)
	return &shardError{index: c.shard, addr: c.addr, status: status, cause: cause}
}

func (c *shardClient) modeName() string {
	switch c.modeVal.Load() {
	case memberModePrimary:
		return "primary"
	case memberModeFollower:
		return "follower"
	}
	return ""
}

func (c *shardClient) probeCause() string {
	if p := c.cause.Load(); p != nil {
		return *p
	}
	return ""
}

func (c *shardClient) setCause(s string) {
	c.cause.Store(&s)
}

// aheadOf compares durable positions: whether c has replicated strictly
// more than o. The failover choice maximizes this.
func (c *shardClient) aheadOf(o *shardClient) bool {
	cs, os := c.sealSeq.Load(), o.sealSeq.Load()
	if cs != os {
		return cs > os
	}
	return c.walOff.Load() > o.walOff.Load()
}

const staleFmt = "stale replica: has %d records, router acknowledged ingest at %d"

// staleAt refuses an answer computed from fewer records than the router has
// already acknowledged an ingest at (a follower behind its primary would
// un-see that ingest). The refusal is retryable, so readMember moves on to
// the next member, and it becomes this member's not-ready cause.
func (c *shardClient) staleAt(records, acked int) error {
	if records >= acked {
		return nil
	}
	cause := fmt.Sprintf(staleFmt, records, acked)
	c.setCause(cause)
	return c.errAt(http.StatusServiceUnavailable, errors.New(cause))
}

// call performs one HTTP round-trip under the per-attempt timeout and
// returns the status code and body. Bodies are fully read so connections
// are reused; one larger than MaxBodyBytes fails the call by name
// rather than arriving truncated.
func (c *shardClient) call(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	actx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	started := time.Now()
	resp, err := c.hc.Do(req)
	c.requests.Add(1)
	c.lastLatency.Store(time.Since(started).Microseconds())
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	// A declared Content-Length sizes the buffer (MinRead spare, so reading
	// to EOF never regrows it); one byte past the limit marks a body too
	// large, which must fail rather than arrive truncated.
	buf := bytes.NewBuffer(make([]byte, 0, min(max(resp.ContentLength, 0), MaxBodyBytes)+bytes.MinRead))
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, MaxBodyBytes+1)); err != nil {
		return 0, nil, err
	}
	if buf.Len() > MaxBodyBytes {
		return 0, nil, fmt.Errorf("response body exceeds the %d-byte limit", MaxBodyBytes)
	}
	return resp.StatusCode, buf.Bytes(), nil
}

// fetch is call for the requests whose only success is a 200: a transport
// failure or any other status becomes the member's shardError, and the 200
// body is returned as read.
func (c *shardClient) fetch(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	status, out, err := c.call(ctx, method, path, body)
	if err != nil {
		return nil, c.err(err)
	}
	if status != http.StatusOK {
		return nil, c.errAt(status, errorEnvelope(status, out))
	}
	return out, nil
}

// fetchJSON is a bodiless fetch whose 200 body decodes into v; what names
// the answer in a decoding error.
func (c *shardClient) fetchJSON(ctx context.Context, method, path, what string, v any) error {
	out, err := c.fetch(ctx, method, path, nil)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(out, v); err != nil {
		return c.err(fmt.Errorf("decoding %s: %w", what, err))
	}
	return nil
}

// probe refreshes the member's health state from its /readyz; one holding
// fewer than acked records is not ready for reads whatever it says (see
// staleAt). Probes use their own short timeout and do not touch the request
// counters.
func (c *shardClient) probe(ctx context.Context, acked int) {
	actx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, c.base+"/readyz", nil)
	if err != nil {
		return
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.reachable.Store(false)
		c.ready.Store(false)
		c.setCause(err.Error())
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var rr ReadyResponse
	if err == nil {
		err = json.Unmarshal(body, &rr)
	}
	if err != nil {
		c.reachable.Store(false)
		c.ready.Store(false)
		c.setCause("bad readyz answer: " + err.Error())
		return
	}
	c.reachable.Store(true)
	c.ready.Store(rr.Ready)
	switch rr.Mode {
	case "follower":
		c.modeVal.Store(memberModeFollower)
	default:
		// An unreplicated member has no mode and serves writes: primary.
		c.modeVal.Store(memberModePrimary)
	}
	c.sealSeq.Store(rr.SealSeq)
	c.walOff.Store(rr.WALOff)
	c.setCause(rr.Cause)
	if rr.Ready && rr.Records < acked {
		c.ready.Store(false)
		c.setCause(fmt.Sprintf(staleFmt, rr.Records, acked))
	}
}

// promote asks the member to stop following and accept writes (idempotent
// on the server side). On success the local health view flips immediately
// so the router can route writes without waiting for the next probe.
func (c *shardClient) promote(ctx context.Context) error {
	var pr PromoteResponse
	if err := c.fetchJSON(ctx, http.MethodPost, repl.PathPromote, "promote response", &pr); err != nil {
		return err
	}
	c.modeVal.Store(memberModePrimary)
	c.reachable.Store(true)
	c.ready.Store(true)
	c.sealSeq.Store(pr.SealSeq)
	c.walOff.Store(pr.WALOff)
	return nil
}

// errorEnvelope extracts the "error" field of a JSON error body, falling
// back to the raw body.
func errorEnvelope(status int, body []byte) error {
	var env struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &env) == nil && env.Error != "" {
		return fmt.Errorf("status %d: %s", status, env.Error)
	}
	return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
}

// partial POSTs a pinned-window query to the member's /v2/partial and
// decodes the per-object contribution (decodePartial). A body this build
// cannot decode — a member running another build — is a failed call, never
// a guess.
func (c *shardClient) partial(ctx context.Context, req QueryV2, acked int) (*core.Partial, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, c.err(err)
	}
	out, err := c.fetch(ctx, http.MethodPost, "/v2/partial", body)
	if err != nil {
		return nil, err
	}
	p, records, err := decodePartial(out, len(req.SLocs))
	if err != nil {
		return nil, c.err(fmt.Errorf("decoding partial: %w", err))
	}
	if err := c.staleAt(records, acked); err != nil {
		return nil, err
	}
	return p, nil
}

// span fetches the member table's time span.
func (c *shardClient) span(ctx context.Context, acked int) (*SpanResponse, error) {
	var sp SpanResponse
	if err := c.fetchJSON(ctx, http.MethodGet, "/v2/span", "span", &sp); err != nil {
		return nil, err
	}
	if err := c.staleAt(sp.Records, acked); err != nil {
		return nil, err
	}
	return &sp, nil
}

// ingest forwards a sub-batch to the shard's primary. On a 400 the decoded
// IngestErrorResponse is returned so the router can map the failing index
// back to the caller's batch. Never retried (see shardClient).
func (c *shardClient) ingest(ctx context.Context, recs []RecordJSON) (*IngestResponse, *IngestErrorResponse, error) {
	body, err := json.Marshal(IngestRequest{Records: recs})
	if err != nil {
		return nil, nil, c.err(err)
	}
	status, out, err := c.call(ctx, http.MethodPost, "/v1/ingest", body)
	if err != nil {
		return nil, nil, c.err(err)
	}
	switch status {
	case http.StatusOK:
		var resp IngestResponse
		if err := json.Unmarshal(out, &resp); err != nil {
			return nil, nil, c.err(fmt.Errorf("decoding ingest response: %w", err))
		}
		return &resp, nil, nil
	case http.StatusBadRequest:
		var rej IngestErrorResponse
		if err := json.Unmarshal(out, &rej); err != nil || rej.Error == "" {
			return nil, nil, c.errAt(status, errorEnvelope(status, out))
		}
		return nil, &rej, nil
	default:
		return nil, nil, c.errAt(status, errorEnvelope(status, out))
	}
}

// stats fetches the member's /v1/stats payload verbatim.
func (c *shardClient) stats(ctx context.Context) (json.RawMessage, error) {
	return c.fetch(ctx, http.MethodGet, "/v1/stats", nil)
}

// isShardError reports whether err (anywhere in its chain) is a failed
// shard call, and returns it.
func isShardError(err error) (*shardError, bool) {
	var se *shardError
	if errors.As(err, &se) {
		return se, true
	}
	return nil, false
}
