package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tkplq/internal/parts"
	"tkplq/internal/wal"
)

// MinWindowBytes is the smallest unacked window a source streams with: two
// follower ack cadences, so a full window always holds an ack's worth.
const MinWindowBytes = 2 * AckEveryBytes

// ackTimeout drops a session that makes no ack progress while its window is
// full.
const ackTimeout = 30 * time.Second

// SourceConfig parametrizes a Source.
type SourceConfig struct {
	// Store is the primary's partitioned store. Required.
	Store *parts.Store
	// HeartbeatEvery is the idle heartbeat cadence (default 1s).
	HeartbeatEvery time.Duration
	// WindowBytes bounds the unacked stream: once sent-minus-acked WAL
	// bytes exceed it, the source pauses until the follower acks (default
	// 4 MiB). A smaller value than MinWindowBytes is raised to it: a paused
	// source sends no heartbeat, so below it the follower may have nothing
	// to ack until ackTimeout drops the session.
	WindowBytes int64
	// Logf receives session lifecycle logs (nil = silent).
	Logf func(format string, args ...any)
}

func (c SourceConfig) heartbeatEvery() time.Duration {
	if c.HeartbeatEvery <= 0 {
		return time.Second
	}
	return c.HeartbeatEvery
}

func (c SourceConfig) windowBytes() int64 {
	if c.WindowBytes <= 0 {
		return 4 << 20
	}
	return max(c.WindowBytes, MinWindowBytes)
}

func (c SourceConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Source is the primary side of replication: it serves one streaming
// session per connected follower over the store's committed log.
type Source struct {
	cfg SourceConfig

	nextSession atomic.Int64

	mu       sync.Mutex
	sessions map[string]*session
	draining bool
}

// session is one follower's live stream state, shared between the Serve
// goroutine (sender) and Ack (receiver).
type session struct {
	id       int64
	follower string
	started  time.Time
	canceled chan struct{} // closed when a re-dial supersedes this session

	mu         sync.Mutex
	sentFrames int64
	sentBytes  int64
	ackFrames  int64
	ackBytes   int64
	sealSeq    uint64
	walOff     int64
	lastAck    time.Time
	ackCh      chan struct{} // 1-buffered poke on every ack
}

// FollowerStatus is one follower's replication health for /v1/stats.
type FollowerStatus struct {
	ID         string
	Age        time.Duration
	SentFrames int64
	SentBytes  int64
	AckFrames  int64
	AckBytes   int64
	LagFrames  int64
	LagBytes   int64
	SealSeq    uint64
	WALOff     int64
	LastAckAge time.Duration
}

// NewSource builds a Source over the primary's store.
func NewSource(cfg SourceConfig) *Source {
	return &Source{cfg: cfg, sessions: make(map[string]*session)}
}

// Status returns the connected followers' replication state, sorted by id.
func (s *Source) Status() []FollowerStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	out := make([]FollowerStatus, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sess.mu.Lock()
		st := FollowerStatus{
			ID:         sess.follower,
			Age:        now.Sub(sess.started),
			SentFrames: sess.sentFrames,
			SentBytes:  sess.sentBytes,
			AckFrames:  sess.ackFrames,
			AckBytes:   sess.ackBytes,
			LagFrames:  sess.sentFrames - sess.ackFrames,
			LagBytes:   sess.sentBytes - sess.ackBytes,
			SealSeq:    sess.sealSeq,
			WALOff:     sess.walOff,
			LastAckAge: now.Sub(sess.lastAck),
		}
		sess.mu.Unlock()
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Ack records a follower's progress report. Acks for stale sessions are
// dropped silently (the follower re-dialed meanwhile).
func (s *Source) Ack(a Ack) {
	s.mu.Lock()
	sess := s.sessions[a.Follower]
	s.mu.Unlock()
	if sess == nil || sess.id != a.Session {
		return
	}
	sess.mu.Lock()
	if a.Frames > sess.ackFrames {
		sess.ackFrames = a.Frames
	}
	if a.Bytes > sess.ackBytes {
		sess.ackBytes = a.Bytes
	}
	sess.sealSeq = a.SealSeq
	sess.walOff = a.WALOff
	sess.lastAck = time.Now()
	sess.mu.Unlock()
	select {
	case sess.ackCh <- struct{}{}:
	default:
	}
}

// register opens a session for the follower, superseding (and waking) any
// previous one under the same identity. On a draining source the session is
// born canceled, so the stream ends at the first tail iteration instead of
// holding graceful shutdown open.
func (s *Source) register(follower string) *session {
	sess := &session{
		id:       s.nextSession.Add(1),
		follower: follower,
		started:  time.Now(),
		lastAck:  time.Now(),
		canceled: make(chan struct{}),
		ackCh:    make(chan struct{}, 1),
	}
	s.mu.Lock()
	if old := s.sessions[follower]; old != nil {
		close(old.canceled)
	}
	if s.draining {
		close(sess.canceled)
	}
	s.sessions[follower] = sess
	s.mu.Unlock()
	return sess
}

// Shutdown cancels every live replication session (and pre-cancels future
// ones): the long-lived stream responses finish, so the server's graceful
// shutdown is not held open until its drain budget expires. Followers treat
// the drop like any link failure and reconnect with backoff.
func (s *Source) Shutdown() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = true
	for _, sess := range s.sessions {
		select {
		case <-sess.canceled:
		default:
			close(sess.canceled)
		}
	}
}

func (s *Source) unregister(sess *session) {
	s.mu.Lock()
	if s.sessions[sess.follower] == sess {
		delete(s.sessions, sess.follower)
	}
	s.mu.Unlock()
}

// Serve runs one replication session: it decides the manifest from the
// follower's handshake, ships missing partition files (bootstrap only),
// then tails the committed WAL until the context ends, the session is
// superseded, or the follower stops acking. Errors returned before the
// first write are mappable to an HTTP status (ErrBootstrapRequired → 409);
// later errors just end the stream. flush must push buffered response
// bytes to the network (streaming responses are useless unflushed).
func (s *Source) Serve(ctx context.Context, w io.Writer, flush func(), h Handshake) error {
	if s.cfg.Store == nil {
		return errors.New("repl: source has no store")
	}
	if h.Follower == "" {
		return errors.New("repl: handshake names no follower")
	}
	if err := s.cfg.Store.Failed(); err != nil {
		return fmt.Errorf("repl: primary store is poisoned: %w", err)
	}

	view, seq, off := s.cfg.Store.ReplicationView()
	m, files, err := s.decide(h, view, seq, off)
	if err != nil {
		return err
	}

	sess := s.register(h.Follower)
	m.Session = sess.id
	defer s.unregister(sess)
	s.cfg.logf("repl: session %d: follower %s at (seal %d, off %d, live %v) → start (%d, %d), %d files, full_resync=%v reset_wal=%v",
		sess.id, h.Follower, h.SealSeq, h.WALOff, h.Live, m.StartSeq, m.StartOff, len(files), m.FullResync, m.ResetWAL)

	payload, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if err := writeFrame(w, frameManifest, payload); err != nil {
		return err
	}
	if !h.Live {
		for _, p := range files {
			if err := shipFile(w, p); err != nil {
				return err
			}
			flush()
		}
		if err := writeFrame(w, frameFilesDone, nil); err != nil {
			return err
		}
	}
	flush()
	return s.tail(ctx, w, flush, sess, m.StartSeq, m.StartOff)
}

// decide turns the follower's handshake plus the primary's consistent
// (sealed set, WAL position) view into a manifest.
//
// Bootstrap (store not open yet): ship every partition file whose range the
// follower lacks (hi > follower's seal). If any shipped file straddles the
// follower's boundary (lo ≤ seal < hi — a compaction merged across it), or
// the follower is AHEAD of the primary (divergence: it outlived a previous
// primary), the only byte-exact baseline is everything: full resync. The
// WAL tail then starts at the primary's active segment; the follower's own
// segment survives only when it is a verified byte prefix of the primary's
// active segment (same seq, matching prefix CRC).
//
// Live reconnect: files cannot be applied, so the follower's position must
// be a verified prefix of history the primary still has on disk (WAL
// retention); anything else is ErrBootstrapRequired.
func (s *Source) decide(h Handshake, view []*parts.Partition, seq uint64, off int64) (Manifest, []*parts.Partition, error) {
	log := s.cfg.Store.Log()
	if h.Live {
		if h.WALSeq > seq || h.SealSeq > seq {
			return Manifest{}, nil, fmt.Errorf("%w: follower at seal %d is ahead of primary at %d", ErrBootstrapRequired, h.SealSeq, seq)
		}
		segPath := log.SegmentPath(h.WALSeq)
		if h.WALOff < wal.SegmentHeaderLen {
			return Manifest{}, nil, fmt.Errorf("%w: follower reports no usable segment", ErrBootstrapRequired)
		}
		crc, err := wal.PrefixCRC(segPath, h.WALOff)
		if err != nil {
			return Manifest{}, nil, fmt.Errorf("%w: segment %d no longer on the primary (%v)", ErrBootstrapRequired, h.WALSeq, err)
		}
		if h.WALSeq == seq && h.WALOff > off {
			return Manifest{}, nil, fmt.Errorf("%w: follower offset %d is past the primary's committed %d", ErrBootstrapRequired, h.WALOff, off)
		}
		if crc != h.WALCRC {
			return Manifest{}, nil, fmt.Errorf("%w: segment %d prefix diverged", ErrBootstrapRequired, h.WALSeq)
		}
		return Manifest{StartSeq: h.WALSeq, StartOff: h.WALOff}, nil, nil
	}

	full := h.SealSeq > seq
	var files []*parts.Partition
	if !full {
		for _, p := range view {
			lo, hi := p.SeqRange()
			if hi <= h.SealSeq {
				continue
			}
			if lo <= h.SealSeq {
				// A compaction on the primary merged across the follower's
				// seal boundary; no subset of files is byte-exact.
				full = true
				break
			}
			files = append(files, p)
		}
	}
	if full {
		files = append([]*parts.Partition(nil), view...)
	}
	m := Manifest{FullResync: full, StartSeq: seq, StartOff: wal.SegmentHeaderLen}
	if !full && len(files) == 0 && h.WALSeq == seq && h.WALOff >= wal.SegmentHeaderLen && h.WALOff <= off {
		// Same seal, no missing files: resume mid-segment if the follower's
		// log is a byte-identical prefix of ours.
		if crc, err := wal.PrefixCRC(log.SegmentPath(seq), h.WALOff); err == nil && crc == h.WALCRC {
			m.StartOff = h.WALOff
		} else {
			m.ResetWAL = true
		}
	} else {
		m.ResetWAL = true
	}
	for _, p := range files {
		lo, hi := p.SeqRange()
		m.Files = append(m.Files, FileInfo{
			Name:  filepath.Base(p.Path()),
			Size:  p.SizeBytes(),
			SeqLo: lo,
			SeqHi: hi,
		})
	}
	return m, files, nil
}

// shipFile streams one partition image: Begin, 1 MiB chunks, End(CRC). The
// Retain pins the mapping so a concurrent compaction deleting the file
// cannot pull the bytes out from under the copy.
func shipFile(w io.Writer, p *parts.Partition) error {
	p.Retain()
	defer p.Release()
	data := p.Bytes()
	lo, hi := p.SeqRange()
	begin, err := json.Marshal(FileInfo{Name: filepath.Base(p.Path()), Size: int64(len(data)), SeqLo: lo, SeqHi: hi})
	if err != nil {
		return err
	}
	if err := writeFrame(w, frameFileBegin, begin); err != nil {
		return err
	}
	for off := 0; off < len(data); off += fileChunkLen {
		end := off + fileChunkLen
		if end > len(data) {
			end = len(data)
		}
		if err := writeFrame(w, frameFileChunk, data[off:end]); err != nil {
			return err
		}
	}
	endMsg, err := json.Marshal(fileEndMsg{CRC: crc32.Checksum(data, crcTable)})
	if err != nil {
		return err
	}
	return writeFrame(w, frameFileEnd, endMsg)
}

// tail streams the committed WAL from (cur, curOff) forward: frames up to
// the committed position, a Seal marker at every rotation boundary, and
// heartbeats while idle. It never reads past wal.Position — bytes beyond it
// may be a frame mid-write.
func (s *Source) tail(ctx context.Context, w io.Writer, flush func(), sess *session, cur uint64, curOff int64) error {
	log := s.cfg.Store.Log()
	watch, cancelWatch := log.Watch()
	defer cancelWatch()

	f, err := os.Open(log.SegmentPath(cur))
	if err != nil {
		return fmt.Errorf("repl: session %d: %w", sess.id, err)
	}
	defer func() { f.Close() }()

	hb := time.NewTicker(s.cfg.heartbeatEvery())
	defer hb.Stop()
	var hdr [8]byte
	buf := make([]byte, 64<<10)

	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-sess.canceled:
			return fmt.Errorf("repl: session %d superseded by a newer dial from %s", sess.id, sess.follower)
		default:
		}
		if err := s.cfg.Store.Failed(); err != nil {
			return fmt.Errorf("repl: primary store poisoned mid-session: %w", err)
		}

		seq, off := log.Position()
		rotated := seq > cur
		target := off
		if rotated {
			// The segment is final: its whole length is committed.
			fi, err := f.Stat()
			if err != nil {
				return err
			}
			target = fi.Size()
		}

		if curOff < target {
			sent := false
			for curOff < target {
				if _, err := f.ReadAt(hdr[:], curOff); err != nil {
					return fmt.Errorf("repl: reading frame header at %d: %w", curOff, err)
				}
				total, err := wal.FrameLen(hdr[:])
				if err != nil {
					return fmt.Errorf("repl: segment %d frame at offset %d: %w", cur, curOff, err)
				}
				if curOff+total > target {
					return fmt.Errorf("repl: segment %d has an invalid frame at offset %d", cur, curOff)
				}
				if int64(cap(buf)) < total {
					buf = make([]byte, total)
				}
				frame := buf[:total]
				if _, err := f.ReadAt(frame, curOff); err != nil {
					return fmt.Errorf("repl: reading frame at %d: %w", curOff, err)
				}
				if _, err := wal.NextFrame(frame); err != nil {
					return fmt.Errorf("repl: segment %d frame at offset %d: %w", cur, curOff, err)
				}
				if err := writeFrame(w, frameWAL, frame); err != nil {
					return err
				}
				curOff += total
				sent = true
				sess.mu.Lock()
				sess.sentFrames++
				sess.sentBytes += total
				sess.mu.Unlock()
				if err := s.waitWindow(ctx, sess); err != nil {
					return err
				}
			}
			if sent {
				flush()
			}
			continue
		}

		if rotated {
			// Fully drained: everything in segment cur is sealed into
			// partition cur+1 on the primary; tell the follower to seal its
			// head now, producing the byte-identical partition, then move to
			// the next segment.
			payload, err := json.Marshal(sealMsg{Seq: cur + 1})
			if err != nil {
				return err
			}
			if err := writeFrame(w, frameSeal, payload); err != nil {
				return err
			}
			flush()
			f.Close()
			cur++
			curOff = wal.SegmentHeaderLen
			f, err = os.Open(log.SegmentPath(cur))
			if err != nil {
				// The segment already left the retention window (possible
				// only if the follower lagged several rotations); it will
				// re-dial and re-bootstrap.
				return fmt.Errorf("repl: session %d fell behind retention: %w", sess.id, err)
			}
			continue
		}

		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-sess.canceled:
			return fmt.Errorf("repl: session %d superseded by a newer dial from %s", sess.id, sess.follower)
		case <-watch:
		case <-hb.C:
			payload, err := json.Marshal(heartbeatMsg{Seq: seq, Off: off})
			if err != nil {
				return err
			}
			if err := writeFrame(w, frameHeartbeat, payload); err != nil {
				return err
			}
			flush()
		}
	}
}

// waitWindow blocks while the unacked window is full, timing out if the
// follower makes no ack progress at all.
func (s *Source) waitWindow(ctx context.Context, sess *session) error {
	window := s.cfg.windowBytes()
	var lastAcked int64 = -1
	deadline := time.Now().Add(ackTimeout)
	for {
		sess.mu.Lock()
		acked := sess.ackBytes
		over := sess.sentBytes-acked > window
		sess.mu.Unlock()
		if !over {
			return nil
		}
		if acked != lastAcked {
			lastAcked = acked
			deadline = time.Now().Add(ackTimeout)
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			return fmt.Errorf("repl: follower %s stopped acking with the window full (%d unacked bytes)", sess.follower, sess.sentBytes-acked)
		}
		if wait > 100*time.Millisecond {
			wait = 100 * time.Millisecond
		}
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-sess.canceled:
			t.Stop()
			return fmt.Errorf("repl: session %d superseded", sess.id)
		case <-sess.ackCh:
			t.Stop()
		case <-t.C:
		}
	}
}
