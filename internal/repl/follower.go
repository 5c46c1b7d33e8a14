package repl

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"tkplq"
	"tkplq/internal/parts"
	"tkplq/internal/retry"
	"tkplq/internal/wal"
)

// AckEveryBytes coalesces a follower's progress reports: one ack per this
// many applied WAL bytes, plus one on every seal and heartbeat.
const AckEveryBytes = 256 << 10

// FollowerConfig parametrizes a Follower.
type FollowerConfig struct {
	// Dir is the data directory the follower bootstraps into. Required.
	Dir string
	// Self is the follower's advertised identity, the session key on the
	// primary. Required.
	Self string
	// Primaries lists the candidate upstream addresses (host:port), tried
	// round-robin: after a failover any replica-set sibling may be the
	// primary. Required, at least one.
	Primaries []string
	// Open is called exactly once, after the bootstrap files are applied:
	// it must open the partitioned store over Dir (which recovers to
	// exactly (startSeq, startOff)) and return it with the System persisting
	// to it. The tail applies replicated batches through System.Ingest — the
	// same validation, ingest lock, write-ahead append and live-monitor
	// notification a local ingest gets, which is what makes the follower's
	// WAL byte-identical and its subscriptions live — and seal markers
	// through System.Snapshot, which holds the ingest lock across the seal
	// exactly as on the primary. Required.
	Open func(startSeq uint64, startOff int64) (*tkplq.System, *parts.Store, error)
	// Retry paces reconnects (zero value = retry defaults). The attempt
	// counter resets whenever a session makes progress, so a follower that
	// keeps losing a flaky link backs off to Cap but recovers fast.
	Retry retry.Policy
	// StallTimeout tears down a session over a silently dead link: the
	// primary heartbeats every second or so, so a stream with no frame for
	// this long is broken even if TCP has not noticed (default 15s).
	StallTimeout time.Duration
	// Client performs the HTTP exchanges (default: a client with no
	// timeout — the stream response lives until the link dies).
	Client *http.Client
	// Logf receives lifecycle logs (nil = silent).
	Logf func(format string, args ...any)

	// hookFrame, when set (tests only), runs after every received stream
	// frame; an error aborts the session as if the link died there.
	hookFrame func(typ byte, idx int) error
}

func (c FollowerConfig) stallTimeout() time.Duration {
	if c.StallTimeout <= 0 {
		return 15 * time.Second
	}
	return c.StallTimeout
}

func (c FollowerConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// FollowerState is a Follower's replication health for /readyz and
// /v1/stats.
type FollowerState struct {
	Primary     string // current (or last) upstream address
	Connected   bool
	Synced      bool // position caught up to the primary's last-known one
	SealSeq     uint64
	WALSeq      uint64
	WALOff      int64
	Frames      int64 // WAL frames applied, lifetime
	Bytes       int64 // WAL bytes applied, lifetime
	Reconnects  int64
	FullResyncs int64
	LastContact time.Time // zero until the first successful exchange
}

// fatalError marks a session error the retry loop must not absorb: the
// follower's state can only be fixed by an operator (or a process restart
// that re-bootstraps).
type fatalError struct{ err error }

func (e fatalError) Error() string { return e.err.Error() }
func (e fatalError) Unwrap() error { return e.err }

func fatalf(format string, args ...any) error {
	return fatalError{fmt.Errorf(format, args...)}
}

// Follower replicates one primary's shard into a local store: bootstrap by
// file shipping, then tail the WAL stream, reconnecting with backoff until
// promoted or canceled.
type Follower struct {
	cfg FollowerConfig

	openedCh  chan struct{} // closed once the local store is open
	promoteCh chan struct{} // closed by Promote
	runDone   chan struct{} // closed when Run returns

	mu         sync.Mutex
	sys        *tkplq.System // set with store when the local store opens
	store      *parts.Store
	promoted   bool
	primaryIdx int
	sessID     int64  // current stream's session id (acks echo it)
	sessAddr   string // current stream's primary
	primarySeq uint64 // primary's last-reported committed position
	primaryOff int64
	state      FollowerState
}

// NewFollower builds a Follower; call Run to start replicating.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Dir == "" || cfg.Self == "" || cfg.Open == nil || len(cfg.Primaries) == 0 {
		return nil, errors.New("repl: FollowerConfig needs Dir, Self, Open and at least one primary")
	}
	return &Follower{
		cfg:       cfg,
		openedCh:  make(chan struct{}),
		promoteCh: make(chan struct{}),
		runDone:   make(chan struct{}),
	}, nil
}

// Opened is closed once the bootstrap completed and the local store (and
// System) exist: the daemon waits on it before serving reads.
func (f *Follower) Opened() <-chan struct{} { return f.openedCh }

// State returns a snapshot of the follower's replication health.
func (f *Follower) State() FollowerState {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.state
	if f.store != nil {
		st.WALSeq, st.WALOff = f.store.Log().Position()
		st.SealSeq = st.WALSeq
	}
	return st
}

// Promote stops following: it tears down the stream, waits for Run to
// return (so no Apply is in flight), and reports the final position. After
// Promote the store accepts local writes; the caller flips its serving mode.
// Idempotent — concurrent calls all block until the stream is down.
func (f *Follower) Promote() (seq uint64, off int64) {
	f.mu.Lock()
	if !f.promoted {
		f.promoted = true
		close(f.promoteCh)
	}
	f.mu.Unlock()
	<-f.runDone
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.store != nil {
		return f.store.Log().Position()
	}
	return 0, 0
}

func (f *Follower) isPromoted() bool {
	select {
	case <-f.promoteCh:
		return true
	default:
		return false
	}
}

// Run replicates until the context ends (ctx.Err()), Promote is called
// (nil), or a fatal condition is hit: ErrBootstrapRequired after the store
// opened (restart the process to re-bootstrap) or a protocol/divergence
// violation. Transient errors — unreachable primary, dropped stream, torn
// frame — reconnect forever with capped, jittered backoff, rotating through
// the candidate primaries.
func (f *Follower) Run(ctx context.Context) error {
	defer close(f.runDone)
	attempt := 0
	for {
		if f.isPromoted() {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		progressed, err := f.session(ctx)
		if f.isPromoted() {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var fe fatalError
		if errors.As(err, &fe) {
			return fe.err
		}
		if errors.Is(err, ErrBootstrapRequired) {
			// The primary cannot serve our position live. Before the store
			// is open this cannot happen (bootstrap handshakes never 409);
			// after, only a restart can re-bootstrap.
			return err
		}
		if progressed {
			attempt = 0
		}
		attempt++
		f.mu.Lock()
		f.state.Reconnects++
		f.primaryIdx = (f.primaryIdx + 1) % len(f.cfg.Primaries)
		f.mu.Unlock()
		f.cfg.logf("repl: follower %s: session ended (%v); retry %d", f.cfg.Self, err, attempt)
		// Cap the exponent so the ceiling math stays sane on very long
		// outages; Policy.Cap bounds the delay either way.
		capped := attempt
		if capped > 16 {
			capped = 16
		}
		if err := f.cfg.Retry.Sleep(ctx, capped); err != nil {
			return err
		}
	}
}

func (f *Follower) client() *http.Client {
	if f.cfg.Client != nil {
		return f.cfg.Client
	}
	return http.DefaultClient
}

func (f *Follower) currentPrimary() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cfg.Primaries[f.primaryIdx%len(f.cfg.Primaries)]
}

// handshake builds the session request: a directory scan before the store
// opens, the store's live position after.
func (f *Follower) handshake() (Handshake, error) {
	_, store := f.local()
	if store == nil {
		h, err := scanDir(f.cfg.Dir)
		if err != nil {
			return Handshake{}, err
		}
		h.Follower = f.cfg.Self
		return h, nil
	}
	seq, off := store.Log().Position()
	crc, err := wal.PrefixCRC(store.Log().SegmentPath(seq), off)
	if err != nil {
		return Handshake{}, fatalf("repl: cannot checksum own segment %d: %v", seq, err)
	}
	return Handshake{
		Follower: f.cfg.Self,
		SealSeq:  seq,
		WALSeq:   seq,
		WALOff:   off,
		WALCRC:   crc,
		Live:     true,
	}, nil
}

// session runs one dial → handshake → stream exchange. progressed reports
// whether any frame was applied (resets the retry backoff).
func (f *Follower) session(ctx context.Context) (progressed bool, err error) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		select {
		case <-f.promoteCh:
			cancel()
		case <-sctx.Done():
		}
	}()

	h, err := f.handshake()
	if err != nil {
		return false, err
	}
	primary := f.currentPrimary()
	body, err := json.Marshal(h)
	if err != nil {
		return false, err
	}
	req, err := http.NewRequestWithContext(sctx, http.MethodPost, "http://"+primary+PathReplicate, bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.client().Do(req)
	if err != nil {
		return false, err
	}
	defer func() {
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if resp.StatusCode == http.StatusConflict {
			return false, fmt.Errorf("%w (primary %s: %s)", ErrBootstrapRequired, primary, bytes.TrimSpace(msg))
		}
		return false, fmt.Errorf("repl: primary %s: %s: %s", primary, resp.Status, bytes.TrimSpace(msg))
	}

	f.mu.Lock()
	f.sessAddr = primary
	f.state.Primary = primary
	f.state.Connected = true
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.state.Connected = false
		f.mu.Unlock()
	}()

	// The stall watchdog cancels the request context — unblocking the body
	// read — if the primary goes silent past the heartbeat cadence.
	wd := time.AfterFunc(f.cfg.stallTimeout(), cancel)
	defer wd.Stop()

	br := bufio.NewReaderSize(resp.Body, 64<<10)
	frameIdx := 0
	next := func() (byte, []byte, error) {
		typ, payload, err := readFrame(br)
		if err != nil {
			return 0, nil, err
		}
		wd.Reset(f.cfg.stallTimeout())
		if f.cfg.hookFrame != nil {
			if herr := f.cfg.hookFrame(typ, frameIdx); herr != nil {
				return 0, nil, herr
			}
		}
		frameIdx++
		return typ, payload, nil
	}

	typ, payload, err := next()
	if err != nil {
		return false, err
	}
	if typ != frameManifest {
		return false, fmt.Errorf("repl: stream opened with frame type %d, not a manifest", typ)
	}
	var m Manifest
	if err := json.Unmarshal(payload, &m); err != nil {
		return false, fmt.Errorf("repl: manifest: %w", err)
	}
	f.mu.Lock()
	f.sessID = m.Session
	if m.StartSeq > f.primarySeq || (m.StartSeq == f.primarySeq && m.StartOff > f.primaryOff) {
		f.primarySeq, f.primaryOff = m.StartSeq, m.StartOff
	}
	f.mu.Unlock()

	if !h.Live {
		if err := f.bootstrap(next, m, h); err != nil {
			return false, err
		}
		progressed = true
	} else {
		if m.FullResync || m.ResetWAL || len(m.Files) > 0 {
			return false, fatalf("repl: primary %s answered a live reconnect with a bootstrap manifest", primary)
		}
		_, store := f.local()
		seq, off := store.Log().Position()
		if m.StartSeq != seq || m.StartOff != off {
			return false, fatalf("repl: primary resumes at (%d, %d) but the store is at (%d, %d)", m.StartSeq, m.StartOff, seq, off)
		}
	}
	f.touch()

	applied, err := f.tail(next)
	return progressed || applied, err
}

// local returns the System and store Open built, nil before the store opens.
func (f *Follower) local() (*tkplq.System, *parts.Store) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sys, f.store
}

func (f *Follower) touch() {
	f.mu.Lock()
	f.state.LastContact = time.Now()
	f.mu.Unlock()
}

// bootstrap applies the manifest's partition files and opens the store.
func (f *Follower) bootstrap(next func() (byte, []byte, error), m Manifest, h Handshake) error {
	dir := f.cfg.Dir
	if m.FullResync {
		f.mu.Lock()
		f.state.FullResyncs++
		f.mu.Unlock()
		f.cfg.logf("repl: follower %s: full resync — wiping %s", f.cfg.Self, dir)
		if err := wipeDir(dir, false); err != nil {
			return fatalf("repl: wiping %s: %v", dir, err)
		}
		h.SealSeq = 0
	} else if m.ResetWAL {
		if err := wipeDir(dir, true); err != nil {
			return fatalf("repl: clearing WAL segments in %s: %v", dir, err)
		}
	}

	// The shipped files plus what the directory already holds must cover
	// the seal range without gaps, ending exactly where the WAL tail
	// starts; anything else means this directory's contents and the
	// manifest cannot be combined. Self-heal by wiping and re-dialing: the
	// next handshake reports seal 0 and the primary ships everything.
	prev := h.SealSeq
	for i, fi := range m.Files {
		if i == 0 && prev == 0 {
			// No local partitions: adopt the primary's base wherever it
			// starts. Directories an earlier build migrated from a flat
			// snapshot base their sealed set above seal 1.
			prev = fi.SeqLo - 1
		}
		if fi.SeqLo != prev+1 || fi.SeqHi < fi.SeqLo {
			return f.wipeAndRetry("manifest file %s does not extend seal %d", fi.Name, prev)
		}
		prev = fi.SeqHi
	}
	if prev != m.StartSeq {
		return f.wipeAndRetry("manifest covers seals through %d but the WAL tail starts at %d", prev, m.StartSeq)
	}

	fileIdx := 0
	for {
		typ, payload, err := next()
		if err != nil {
			return err
		}
		switch typ {
		case frameFileBegin:
			var fi FileInfo
			if err := json.Unmarshal(payload, &fi); err != nil {
				return fmt.Errorf("repl: file begin: %w", err)
			}
			if fileIdx >= len(m.Files) || fi.Name != m.Files[fileIdx].Name {
				return fmt.Errorf("repl: unexpected file %q in stream", fi.Name)
			}
			if err := f.receiveFile(next, dir, fi); err != nil {
				return err
			}
			fileIdx++
		case frameFilesDone:
			if fileIdx != len(m.Files) {
				return fmt.Errorf("repl: stream ended after %d of %d files", fileIdx, len(m.Files))
			}
			return f.openStore(m)
		default:
			return fmt.Errorf("repl: unexpected frame type %d during bootstrap", typ)
		}
	}
}

// wipeAndRetry clears the data directory and returns a retryable error, so
// the next session re-bootstraps from nothing.
func (f *Follower) wipeAndRetry(format string, args ...any) error {
	if err := wipeDir(f.cfg.Dir, false); err != nil {
		return fatalf("repl: wiping %s: %v", f.cfg.Dir, err)
	}
	return fmt.Errorf("repl: "+format+"; wiped %s for a full re-bootstrap", append(args, f.cfg.Dir)...)
}

// receiveFile applies one shipped partition: tmp + CRC verify + fsync +
// rename + dir fsync, the same commit protocol a local seal uses.
func (f *Follower) receiveFile(next func() (byte, []byte, error), dir string, fi FileInfo) error {
	if _, _, ok := parts.ParsePartName(fi.Name); !ok || fi.Name != filepath.Base(fi.Name) {
		return fmt.Errorf("repl: refusing shipped file name %q", fi.Name)
	}
	final := filepath.Join(dir, fi.Name)
	tmp := final + ".tmp"
	w, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fatalf("repl: %v", err)
	}
	defer func() {
		if w != nil {
			w.Close()
			os.Remove(tmp)
		}
	}()
	var size int64
	crc := crc32.New(crcTable)
	for {
		typ, payload, err := next()
		if err != nil {
			return err
		}
		switch typ {
		case frameFileChunk:
			if _, err := w.Write(payload); err != nil {
				return fatalf("repl: writing %s: %v", tmp, err)
			}
			crc.Write(payload)
			size += int64(len(payload))
		case frameFileEnd:
			var end fileEndMsg
			if err := json.Unmarshal(payload, &end); err != nil {
				return fmt.Errorf("repl: file end: %w", err)
			}
			if size != fi.Size || crc.Sum32() != end.CRC {
				return fmt.Errorf("repl: shipped file %s arrived torn (%d bytes, crc %08x)", fi.Name, size, crc.Sum32())
			}
			if err := w.Sync(); err != nil {
				return fatalf("repl: %v", err)
			}
			if err := w.Close(); err != nil {
				w = nil
				return fatalf("repl: %v", err)
			}
			w = nil
			if err := os.Rename(tmp, final); err != nil {
				return fatalf("repl: %v", err)
			}
			if err := wal.SyncDir(dir); err != nil {
				return fatalf("repl: %v", err)
			}
			f.cfg.logf("repl: follower %s: received %s (%d bytes)", f.cfg.Self, fi.Name, size)
			return nil
		default:
			return fmt.Errorf("repl: unexpected frame type %d inside file %s", typ, fi.Name)
		}
	}
}

// openStore opens the local store over the bootstrapped directory and
// verifies it recovered to exactly the manifest's start position.
func (f *Follower) openStore(m Manifest) error {
	sys, store, err := f.cfg.Open(m.StartSeq, m.StartOff)
	if err != nil {
		return fatalf("repl: opening bootstrapped store: %v", err)
	}
	seq, off := store.Log().Position()
	if seq != m.StartSeq || off != m.StartOff {
		return fatalf("repl: bootstrapped store recovered to (%d, %d), manifest starts at (%d, %d)", seq, off, m.StartSeq, m.StartOff)
	}
	f.mu.Lock()
	f.sys, f.store = sys, store
	f.mu.Unlock()
	close(f.openedCh)
	f.cfg.logf("repl: follower %s: store open at (seal %d, off %d)", f.cfg.Self, seq, off)
	return nil
}

// tail applies the live stream: WAL frames through the ingest lock, seal
// markers as local seals, heartbeats as position updates. Every path acks.
func (f *Follower) tail(next func() (byte, []byte, error)) (applied bool, err error) {
	sys, store := f.local()
	log := store.Log()
	var sessFrames, sessBytes, unacked int64
	for {
		typ, payload, err := next()
		if err != nil {
			return applied, err
		}
		switch typ {
		case frameWAL:
			recs, err := wal.DecodeFrame(payload)
			if err != nil {
				return applied, fmt.Errorf("repl: stream WAL frame: %w", err)
			}
			_, before := log.Position()
			if err := sys.Ingest(recs); err != nil {
				return applied, fatalf("repl: applying replicated batch: %v", err)
			}
			if _, after := log.Position(); after-before != int64(len(payload)) {
				return applied, fatalf("repl: applied frame re-encoded to %d bytes, primary wrote %d — WAL encoding diverged", after-before, len(payload))
			}
			applied = true
			sessFrames++
			sessBytes += int64(len(payload))
			unacked += int64(len(payload))
			f.mu.Lock()
			f.state.Frames++
			f.state.Bytes += int64(len(payload))
			f.mu.Unlock()
			f.touch()
			if unacked >= AckEveryBytes {
				f.sendAck(sessFrames, sessBytes)
				unacked = 0
			}
		case frameSeal:
			var msg sealMsg
			if err := json.Unmarshal(payload, &msg); err != nil {
				return applied, fmt.Errorf("repl: seal marker: %w", err)
			}
			if err := sys.Snapshot(); err != nil {
				return applied, fatalf("repl: sealing at %d: %v", msg.Seq, err)
			}
			if seq, _ := log.Position(); seq != msg.Seq {
				return applied, fatalf("repl: seal produced sequence %d, primary sealed %d", seq, msg.Seq)
			}
			applied = true
			f.touch()
			f.sendAck(sessFrames, sessBytes)
			unacked = 0
		case frameHeartbeat:
			var hb heartbeatMsg
			if err := json.Unmarshal(payload, &hb); err != nil {
				return applied, fmt.Errorf("repl: heartbeat: %w", err)
			}
			f.mu.Lock()
			if hb.Seq > f.primarySeq || (hb.Seq == f.primarySeq && hb.Off > f.primaryOff) {
				f.primarySeq, f.primaryOff = hb.Seq, hb.Off
			}
			f.mu.Unlock()
			f.touch()
			f.sendAck(sessFrames, sessBytes)
			unacked = 0
		default:
			return applied, fmt.Errorf("repl: unexpected frame type %d on the live stream", typ)
		}
		f.updateSynced()
	}
}

// updateSynced recomputes the caught-up bit: our position has reached the
// primary's last-reported one.
func (f *Follower) updateSynced() {
	_, store := f.local()
	if store == nil {
		return
	}
	seq, off := store.Log().Position()
	f.mu.Lock()
	f.state.Synced = seq > f.primarySeq || (seq == f.primarySeq && off >= f.primaryOff)
	f.mu.Unlock()
}

// sendAck posts the follower's progress out of band; failures are logged
// and absorbed (a stalled window tears the session down on the primary).
func (f *Follower) sendAck(frames, bytesApplied int64) {
	_, store := f.local()
	if store == nil {
		return
	}
	seq, off := store.Log().Position()
	f.mu.Lock()
	a := Ack{
		Follower: f.cfg.Self,
		Session:  f.sessID,
		Frames:   frames,
		Bytes:    bytesApplied,
		SealSeq:  seq,
		WALOff:   off,
	}
	addr := f.sessAddr
	f.mu.Unlock()
	body, err := json.Marshal(a)
	if err != nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+PathReplicateAck, bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.client().Do(req)
	if err != nil {
		f.cfg.logf("repl: follower %s: ack failed: %v", f.cfg.Self, err)
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	resp.Body.Close()
}

// scanDir derives a bootstrap handshake from the data directory's contents:
// the newest sealed partition sequence and the newest WAL segment's valid
// prefix. A missing directory is created; unreadable state simply reports a
// smaller position (the primary ships more).
func scanDir(dir string) (Handshake, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Handshake{}, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return Handshake{}, err
	}
	var h Handshake
	var walSeqs []uint64
	for _, e := range entries {
		if _, hi, ok := parts.ParsePartName(e.Name()); ok {
			h.SealSeq = max(h.SealSeq, hi)
		} else if seq, ok := wal.ParseSegmentName(e.Name()); ok {
			walSeqs = append(walSeqs, seq)
		}
	}
	h.WALSeq = h.SealSeq
	sort.Slice(walSeqs, func(i, j int) bool { return walSeqs[i] < walSeqs[j] })
	if n := len(walSeqs); n > 0 && walSeqs[n-1] >= h.SealSeq {
		seq := walSeqs[n-1]
		off, crc, _, err := wal.ScanSegment(filepath.Join(dir, wal.SegmentName(seq)))
		if err == nil && off > wal.SegmentHeaderLen {
			h.WALSeq, h.WALOff, h.WALCRC = seq, off, crc
		}
	}
	return h, nil
}

// wipeDir deletes the store files from the data directory — only the WAL
// segments (walOnly) or everything (partitions, segments, temp leftovers).
// Partitions go newest-first so a crash mid-wipe leaves a contiguous prefix
// the next handshake can build on. Unknown files (LOCK) are left alone.
func wipeDir(dir string, walOnly bool) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	type doomed struct {
		name string
		hi   uint64
	}
	var sealed []doomed
	for _, e := range entries {
		name := e.Name()
		if _, hi, ok := parts.ParsePartName(name); ok {
			if !walOnly {
				sealed = append(sealed, doomed{name: name, hi: hi})
			}
			continue
		}
		_, isWAL := wal.ParseSegmentName(name)
		if isWAL || !walOnly && filepath.Ext(name) == ".tmp" {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	sort.Slice(sealed, func(i, j int) bool { return sealed[i].hi > sealed[j].hi })
	for _, p := range sealed {
		if err := os.Remove(filepath.Join(dir, p.name)); err != nil {
			return err
		}
	}
	return wal.SyncDir(dir)
}
