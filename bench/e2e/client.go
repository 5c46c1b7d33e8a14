package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"tkplq/internal/server"
)

// client is the closed-loop load generator: one keep-alive connection, one
// request in flight.
type client struct {
	hc  *http.Client
	buf bytes.Buffer // the last response body; reused between requests
}

func newClient() *client {
	return &client{hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response into c.buf (valid until
// the next call). A transport error or a status other than 200 is an error.
func (c *client) do(method, url string, body []byte) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	}
	return nil
}

func (c *client) post(url string, body []byte) error { return c.do(http.MethodPost, url, body) }

// stats fetches a node's /v1/stats.
func (c *client) stats(n *node) (*server.StatsResponse, error) {
	if err := c.do(http.MethodGet, n.url+"/v1/stats", nil); err != nil {
		return nil, err
	}
	var st server.StatsResponse
	if err := json.Unmarshal(c.buf.Bytes(), &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// pushEvent is one SSE update as the subscriber saw it.
type pushEvent struct {
	at         time.Time // when the event's data line had been read
	records    int       // the table count the update reflects
	recomputed int       // object summaries the incremental evaluation redid
}

// subscriber holds one open /v2/subscribe stream and timestamps its updates
// on a reader goroutine, the second client connection of live_mix.
type subscriber struct {
	body io.Closer
	done chan struct{} // closed when the reader has exited

	mu     sync.Mutex
	events []pushEvent
	err    error
	// arrived is signalled (without blocking) after every update, so the
	// driver can wait for the stream to catch up outside timed regions.
	arrived chan struct{}
}

// subscribe opens the stream and waits for its first event, the snapshot.
func subscribe(url string) (*subscriber, error) {
	hc := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	s := &subscriber{body: resp.Body, done: make(chan struct{}), arrived: make(chan struct{}, 1)}
	go s.read(resp.Body)
	if err := s.waitFor(func(evs []pushEvent) bool { return len(evs) > 0 }, 30*time.Second); err != nil {
		s.close()
		return nil, fmt.Errorf("waiting for the subscription snapshot: %w", err)
	}
	return s, nil
}

func (s *subscriber) read(body io.Reader) {
	defer close(s.done)
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.HasPrefix(line, []byte("data: ")) {
			continue
		}
		at := time.Now()
		var u server.UpdateJSON
		err := json.Unmarshal(line[len("data: "):], &u)
		s.mu.Lock()
		if err != nil {
			s.err = err
		} else {
			s.events = append(s.events, pushEvent{at: at, records: u.Records, recomputed: u.Stats.ObjectsComputed})
		}
		s.mu.Unlock()
		select {
		case s.arrived <- struct{}{}:
		default:
		}
	}
	// The scanner's error after close() is the closed body, not a failure.
}

// waitFor blocks until cond holds for the events seen so far.
func (s *subscriber) waitFor(cond func([]pushEvent) bool, timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		s.mu.Lock()
		ok, err := cond(s.events), s.err
		s.mu.Unlock()
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		select {
		case <-s.arrived:
		case <-s.done:
			return fmt.Errorf("subscription stream ended")
		case <-deadline.C:
			return fmt.Errorf("timed out after %v", timeout)
		}
	}
}

// snapshot returns the events seen so far.
func (s *subscriber) snapshot() []pushEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]pushEvent(nil), s.events...)
}

// close ends the stream and waits for the reader. It must run before the
// server shuts down: the handler returns only when the client disconnects.
func (s *subscriber) close() {
	_ = s.body.Close()
	<-s.done
}
