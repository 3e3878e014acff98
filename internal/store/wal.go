package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// WAL file layout inside the state directory:
//
//	wal-<first-seq>.log    segments of CRC-framed event records
//	snap-<seq>.snap        one CRC-framed State snapshot covering seq ≤ <seq>
//
// Record framing (shared by segments and snapshots):
//
//	uint32 LE payload length | uint32 LE CRC32-IEEE(payload) | payload JSON
//
// A record whose header is short, whose payload is short, or whose CRC
// mismatches is a torn tail: open truncates the segment right before it and
// discards any later segments (they are unreachable past the tear).
const (
	segmentPrefix  = "wal-"
	segmentSuffix  = ".log"
	snapshotPrefix = "snap-"
	snapshotSuffix = ".snap"

	recordHeaderLen = 8

	// maxRecordBytes rejects absurd lengths from corrupt headers before any
	// allocation happens.
	maxRecordBytes = 16 << 20
)

// Typed WAL errors.
var (
	// ErrRecordTooLarge marks a record exceeding maxRecordBytes, on write
	// (an event that should never exist) or on read (a corrupt header).
	ErrRecordTooLarge = errors.New("store: record exceeds size limit")
	// ErrWALClosed marks operations on a closed WAL.
	ErrWALClosed = errors.New("store: wal is closed")
)

// WALConfig parameterizes a write-ahead log.
type WALConfig struct {
	// Dir is the state directory; it is created if absent.
	Dir string

	// SegmentBytes rotates the active segment (and snapshots + compacts)
	// once it exceeds this size. Zero means 4 MiB.
	SegmentBytes int64

	// FlushInterval bounds how stale the durable tail can get: the
	// background flusher runs at least this often while data is buffered.
	// Commit kicks it eagerly when the last flush is older than half this
	// interval and otherwise leaves the batch to the ticker — coalescing
	// fsyncs under fast round cadences instead of paying one per round.
	// Zero means 50 ms.
	FlushInterval time.Duration
}

func (c WALConfig) segmentBytes() int64 {
	if c.SegmentBytes <= 0 {
		return 4 << 20
	}
	return c.SegmentBytes
}

func (c WALConfig) flushInterval() time.Duration {
	if c.FlushInterval <= 0 {
		return 50 * time.Millisecond
	}
	return c.FlushInterval
}

// RecoveryInfo describes what opening a WAL found and repaired.
type RecoveryInfo struct {
	ReplayedEvents   int    // events applied on top of the snapshot
	SnapshotSeq      uint64 // seq the loaded snapshot covered (0 = none)
	Segments         int    // segments scanned
	TruncatedBytes   int64  // torn-tail bytes removed from the log
	DroppedSegments  int    // segments discarded past a mid-log tear
	CorruptSnapshots int    // snapshot files that failed CRC/decode and were skipped
}

// WAL is a segmented write-ahead log of campaign events. Appends are
// buffered in memory and applied to an internal State (the snapshot
// source); a background flusher writes and fsyncs batches — group commit —
// so neither Append nor Commit ever blocks on the disk. Sync blocks until
// everything appended so far is durable; Close implies Sync.
type WAL struct {
	cfg WALConfig
	dir *os.File // held open for directory fsyncs

	mu       sync.Mutex
	cond     *sync.Cond // broadcast when durableSeq advances
	file     *os.File   // active segment
	size     int64      // bytes written to the active segment
	buf      []byte     // encoded records awaiting flush
	seq      uint64     // last assigned seq
	bufSeq   uint64     // last seq encoded into buf
	durable  uint64     // last seq fsynced
	state    *State     // live reduction of everything appended
	snapSeqs []uint64   // existing snapshot seqs, ascending
	err      error      // sticky
	closed   bool
	flushed  time.Time // when the last flush completed

	streams map[*Stream]struct{} // live tail readers pinning retention

	kick chan struct{} // wakes the flusher
	done chan struct{} // flusher exited

	stats    walStats
	recovery RecoveryInfo
}

// OpenWAL opens (creating if needed) the log in cfg.Dir, repairs its tail,
// replays snapshot + segments into a State, and returns the WAL positioned
// to append. The returned State is the caller's to keep (the WAL maintains
// its own copy); it reflects the last durable event, which may include a
// partial in-flight round — resuming at a round boundary is the engine's
// restore policy, not the log's.
func OpenWAL(cfg WALConfig) (*WAL, *State, error) {
	if cfg.Dir == "" {
		return nil, nil, errors.New("store: wal dir must be non-empty")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	dir, err := os.Open(cfg.Dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	w := &WAL{
		cfg:     cfg,
		dir:     dir,
		kick:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		streams: make(map[*Stream]struct{}),
	}
	w.cond = sync.NewCond(&w.mu)
	if err := w.recover(); err != nil {
		dir.Close()
		return nil, nil, err
	}
	// Hand the caller an independent copy: the WAL keeps mutating its own.
	recovered, err := w.state.Clone()
	if err != nil {
		dir.Close()
		return nil, nil, err
	}
	go w.flushLoop()
	return w, recovered, nil
}

// Append assigns the event its sequence number, folds it into the live
// state, and buffers its encoded record for the next group commit.
func (w *WAL) Append(ev Event) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrWALClosed
	}
	if w.err != nil {
		return w.err
	}
	ev.Seq = w.seq + 1
	if err := Apply(w.state, ev); err != nil {
		return err // event/state mismatch: reject before it pollutes the log
	}
	rec, err := encodeRecord(ev)
	if err != nil {
		w.state = nil // state advanced past the log; force rebuild on next open
		w.err = err
		return err
	}
	w.seq = ev.Seq
	w.bufSeq = ev.Seq
	w.buf = append(w.buf, rec...)
	w.stats.appends.Add(1)
	w.stats.bytes.Add(int64(len(rec)))
	return nil
}

// Commit kicks the group-commit flusher. It never blocks on I/O: the round
// path stays hot and durability follows within one flush cycle. Commits
// arriving faster than half the flush interval coalesce — the batch rides
// the safety ticker instead of paying one fsync per round, which matters on
// small machines where "background" fsync work still competes for the CPU.
func (w *WAL) Commit() error {
	w.mu.Lock()
	err := w.err
	closed := w.closed
	eager := len(w.buf) > 0 && time.Since(w.flushed) >= w.cfg.flushInterval()/2
	w.mu.Unlock()
	if closed {
		return ErrWALClosed
	}
	if err != nil {
		return err
	}
	if !eager {
		return nil
	}
	select {
	case w.kick <- struct{}{}:
	default: // a kick is already pending
	}
	return nil
}

// Sync blocks until every event appended before the call is fsynced. Unlike
// Commit it always kicks the flusher: the caller is already paying to wait.
func (w *WAL) Sync() error {
	w.mu.Lock()
	target := w.seq
	err := w.err
	closed := w.closed
	w.mu.Unlock()
	if closed {
		return ErrWALClosed
	}
	if err != nil {
		return err
	}
	select {
	case w.kick <- struct{}{}:
	default: // a kick is already pending
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.durable < target && w.err == nil && !w.closed {
		w.cond.Wait()
	}
	if w.err != nil {
		return w.err
	}
	if w.durable < target {
		return ErrWALClosed
	}
	return nil
}

// Close flushes and fsyncs everything buffered, stops the flusher, and
// closes the files. Returns the sticky error, if any.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		err := w.err
		w.mu.Unlock()
		return err
	}
	w.closed = true
	w.mu.Unlock()

	close(w.kick) // flushLoop drains, flushes the tail, and exits
	<-w.done

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.file != nil {
		if err := w.file.Close(); err != nil && w.err == nil {
			w.err = err
		}
		w.file = nil
	}
	w.dir.Close()
	w.cond.Broadcast()
	return w.err
}

// Recovery reports what opening the log found and repaired.
func (w *WAL) Recovery() RecoveryInfo { return w.recovery }

// flushLoop is the group-commit engine: it batches buffered records, writes
// and fsyncs them, then rotates (snapshot + compaction) when the active
// segment is full. One fsync covers every event appended before the batch
// was taken — that is the "group" in group commit.
func (w *WAL) flushLoop() {
	defer close(w.done)
	ticker := time.NewTicker(w.cfg.flushInterval())
	defer ticker.Stop()
	for {
		select {
		case _, ok := <-w.kick:
			w.flushOnce()
			if !ok {
				return
			}
		case <-ticker.C:
			w.flushOnce()
		}
	}
}

// flushOnce writes and fsyncs the pending buffer, then rotates if the
// segment outgrew its budget.
func (w *WAL) flushOnce() {
	w.mu.Lock()
	if w.err != nil || len(w.buf) == 0 {
		w.mu.Unlock()
		return
	}
	pending := w.buf
	w.buf = nil
	target := w.bufSeq
	rotate := w.size+int64(len(pending)) >= w.cfg.segmentBytes()
	var snapJSON []byte
	if rotate {
		// Marshal the snapshot under the lock: at this instant the state
		// reflects exactly the events ≤ target, which is what the snapshot
		// will claim to cover.
		var err error
		snapJSON, err = json.Marshal(w.state)
		if err != nil {
			w.fail(fmt.Errorf("store: marshal snapshot: %w", err))
			w.mu.Unlock()
			return
		}
	}
	file := w.file
	w.mu.Unlock()

	if _, err := file.Write(pending); err != nil {
		w.fail(fmt.Errorf("store: write segment: %w", err))
		return
	}
	start := time.Now()
	if err := file.Sync(); err != nil {
		w.fail(fmt.Errorf("store: fsync segment: %w", err))
		return
	}
	w.stats.observeFsync(time.Since(start))

	w.mu.Lock()
	w.size += int64(len(pending))
	if target > w.durable {
		w.durable = target
	}
	w.flushed = time.Now()
	w.cond.Broadcast()
	w.mu.Unlock()

	if rotate {
		w.rotate(target, snapJSON)
	}
}

// fail records the WAL's first error and wakes Sync waiters.
func (w *WAL) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

// rotate writes the snapshot covering seq ≤ upto, opens a fresh segment,
// and compacts: segments and snapshots that the two newest snapshots make
// redundant are deleted. Retaining the previous snapshot keeps recovery
// possible when the newest one turns out torn or corrupt.
func (w *WAL) rotate(upto uint64, snapJSON []byte) {
	if err := w.writeSnapshot(upto, snapJSON); err != nil {
		w.fail(err)
		return
	}
	next, err := w.openSegment(upto + 1)
	if err != nil {
		w.fail(err)
		return
	}
	w.mu.Lock()
	old := w.file
	w.file = next
	w.size = 0
	w.snapSeqs = append(w.snapSeqs, upto)
	keepFrom := uint64(0) // delete segments fully covered by the older retained snapshot
	if n := len(w.snapSeqs); n >= 2 {
		keepFrom = w.snapSeqs[n-2]
	}
	// A live replication stream pins everything past its position: never
	// delete a segment it has not finished reading.
	if minPos, ok := w.minStreamPosLocked(); ok && minPos < keepFrom {
		keepFrom = minPos
	}
	drop := w.snapSeqs[:max(0, len(w.snapSeqs)-2)]
	w.snapSeqs = w.snapSeqs[max(0, len(w.snapSeqs)-2):]
	w.mu.Unlock()

	if err := old.Close(); err != nil {
		w.fail(fmt.Errorf("store: close segment: %w", err))
		return
	}
	w.compact(keepFrom, drop)
}

// compact deletes segments whose entire seq range is ≤ keepFrom and the
// given obsolete snapshots. Best-effort: a failed delete only leaks disk.
func (w *WAL) compact(keepFrom uint64, dropSnaps []uint64) {
	segs, _, err := listLog(w.cfg.Dir)
	if err != nil {
		return
	}
	for i, seg := range segs {
		// A segment's range ends where the next segment begins.
		if i+1 < len(segs) && segs[i+1].firstSeq <= keepFrom+1 {
			os.Remove(filepath.Join(w.cfg.Dir, seg.name))
		}
	}
	for _, seq := range dropSnaps {
		os.Remove(filepath.Join(w.cfg.Dir, snapshotName(seq)))
	}
	w.dir.Sync()
}

func (w *WAL) writeSnapshot(seq uint64, data []byte) error {
	framed, err := frame(data)
	if err != nil {
		return err
	}
	tmp := filepath.Join(w.cfg.Dir, snapshotName(seq)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(framed); err != nil {
		f.Close()
		return fmt.Errorf("store: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: fsync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: close snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(w.cfg.Dir, snapshotName(seq))); err != nil {
		return fmt.Errorf("store: publish snapshot: %w", err)
	}
	if err := w.dir.Sync(); err != nil {
		return fmt.Errorf("store: fsync dir: %w", err)
	}
	w.stats.snapshots.Add(1)
	return nil
}

func (w *WAL) openSegment(firstSeq uint64) (*os.File, error) {
	path := filepath.Join(w.cfg.Dir, segmentName(firstSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := w.dir.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: fsync dir: %w", err)
	}
	return f, nil
}

// recover loads the newest readable snapshot, replays the segments on top
// (repairing a torn tail), and leaves the WAL positioned to append.
func (w *WAL) recover() error {
	segs, snaps, err := listLog(w.cfg.Dir)
	if err != nil {
		return err
	}

	state := NewState()
	var snapSeq uint64
	var kept []uint64
	for i := len(snaps) - 1; i >= 0; i-- {
		st, err := loadSnapshot(filepath.Join(w.cfg.Dir, snapshotName(snaps[i])))
		if err != nil {
			w.recovery.CorruptSnapshots++
			continue
		}
		state = st
		snapSeq = snaps[i]
		kept = snaps[:i+1]
		break
	}
	w.recovery.SnapshotSeq = snapSeq
	w.recovery.Segments = len(segs)

	// Replay segments in order, skipping events the snapshot already
	// covers. A tear truncates its segment and discards everything after.
	maxSeq := snapSeq
	for i, seg := range segs {
		path := filepath.Join(w.cfg.Dir, seg.name)
		events, validLen, fileLen, err := readSegmentFile(path)
		if err != nil {
			return err
		}
		for _, ev := range events {
			if ev.Seq <= snapSeq {
				continue
			}
			if err := Apply(state, ev); err != nil {
				return fmt.Errorf("store: replay %s seq %d: %w", seg.name, ev.Seq, err)
			}
			maxSeq = ev.Seq
			w.recovery.ReplayedEvents++
		}
		if validLen < fileLen {
			w.recovery.TruncatedBytes += fileLen - validLen
			if err := os.Truncate(path, validLen); err != nil {
				return fmt.Errorf("store: truncate torn tail of %s: %w", seg.name, err)
			}
			for _, later := range segs[i+1:] {
				w.recovery.DroppedSegments++
				w.recovery.TruncatedBytes += fileSize(filepath.Join(w.cfg.Dir, later.name))
				os.Remove(filepath.Join(w.cfg.Dir, later.name))
			}
			segs = segs[:i+1]
			break
		}
	}

	w.state = state
	w.seq = maxSeq
	w.durable = maxSeq
	w.bufSeq = maxSeq
	w.snapSeqs = kept
	w.stats.replayed.Store(int64(w.recovery.ReplayedEvents))

	// Append into the last surviving segment, or start the log.
	if len(segs) > 0 {
		last := filepath.Join(w.cfg.Dir, segs[len(segs)-1].name)
		f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		w.file = f
		w.size = fileSize(last)
		return nil
	}
	f, err := w.openSegment(maxSeq + 1)
	if err != nil {
		return err
	}
	w.file = f
	return nil
}

// --- record framing ---

// encodeRecord frames one event.
func encodeRecord(ev Event) ([]byte, error) {
	payload, err := json.Marshal(&ev)
	if err != nil {
		return nil, fmt.Errorf("store: marshal event seq %d: %w", ev.Seq, err)
	}
	return frame(payload)
}

// frame prefixes a payload with its length and CRC32.
func frame(payload []byte) ([]byte, error) {
	if len(payload) > maxRecordBytes {
		return nil, ErrRecordTooLarge
	}
	out := make([]byte, recordHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	copy(out[recordHeaderLen:], payload)
	return out, nil
}

// readFrame reads one framed payload from data at off. ok is false at a
// clean end or any tear (short header, absurd length, short payload, CRC
// mismatch) — the caller truncates at off.
func readFrame(data []byte, off int64) (payload []byte, next int64, ok bool) {
	if off+recordHeaderLen > int64(len(data)) {
		return nil, off, false
	}
	n := int64(binary.LittleEndian.Uint32(data[off : off+4]))
	if n > maxRecordBytes || off+recordHeaderLen+n > int64(len(data)) {
		return nil, off, false
	}
	payload = data[off+recordHeaderLen : off+recordHeaderLen+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[off+4:off+8]) {
		return nil, off, false
	}
	return payload, off + recordHeaderLen + n, true
}

// decodeSegment parses framed event records from data, returning the events
// and the length of the valid prefix. Decode errors inside a CRC-valid
// payload are real corruption and are reported; a CRC/framing tear just
// ends the valid prefix.
func decodeSegment(data []byte) (events []Event, validLen int64, err error) {
	var off int64
	for {
		payload, next, ok := readFrame(data, off)
		if !ok {
			return events, off, nil
		}
		var ev Event
		if err := json.Unmarshal(payload, &ev); err != nil {
			return events, off, fmt.Errorf("store: decode record at %d: %w", off, err)
		}
		events = append(events, ev)
		off = next
	}
}

func readSegmentFile(path string) (events []Event, validLen, fileLen int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("store: %w", err)
	}
	// A CRC-valid but undecodable record ends the valid prefix like a tear
	// rather than refusing to open — the prefix is still good — so the
	// decode error itself is dropped.
	events, validLen, _ = decodeSegment(data)
	return events, validLen, int64(len(data)), nil
}

func loadSnapshot(path string) (*State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, next, ok := readFrame(data, 0)
	if !ok || next != int64(len(data)) {
		return nil, fmt.Errorf("store: snapshot %s: torn or trailing bytes", filepath.Base(path))
	}
	st := NewState()
	if err := json.Unmarshal(payload, st); err != nil {
		return nil, fmt.Errorf("store: snapshot %s: %w", filepath.Base(path), err)
	}
	return st, nil
}

// --- directory listing ---

type segmentInfo struct {
	name     string
	firstSeq uint64
}

// listLog enumerates segments (ascending by first seq) and snapshot seqs
// (ascending). Unrelated files are ignored.
func listLog(dir string) ([]segmentInfo, []uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	var segs []segmentInfo
	var snaps []uint64
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, segmentPrefix) && strings.HasSuffix(name, segmentSuffix):
			seq, err := parseSeq(name, segmentPrefix, segmentSuffix)
			if err != nil {
				continue
			}
			segs = append(segs, segmentInfo{name: name, firstSeq: seq})
		case strings.HasPrefix(name, snapshotPrefix) && strings.HasSuffix(name, snapshotSuffix):
			seq, err := parseSeq(name, snapshotPrefix, snapshotSuffix)
			if err != nil {
				continue
			}
			snaps = append(snaps, seq)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	return segs, snaps, nil
}

func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("%s%016d%s", segmentPrefix, firstSeq, segmentSuffix)
}

func snapshotName(seq uint64) string {
	return fmt.Sprintf("%s%016d%s", snapshotPrefix, seq, snapshotSuffix)
}

func parseSeq(name, prefix, suffix string) (uint64, error) {
	return strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix), 10, 64)
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
