package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// Streaming errors.
var (
	// ErrCompacted marks a Stream request for events that compaction has
	// already deleted; the caller must bootstrap from a snapshot instead
	// (see SnapshotNow and InitSnapshot).
	ErrCompacted = errors.New("store: requested events compacted away")
	// ErrStreamClosed marks a Recv on a closed stream.
	ErrStreamClosed = errors.New("store: stream is closed")
)

// Stream is a tail reader over a WAL: it delivers durable events in sequence
// order, blocking until more become durable. A live stream pins retention —
// compaction never deletes a segment holding events the stream has not yet
// delivered — so replication readers can trail arbitrarily far behind
// without racing segment deletion. Each stream keeps a cursor on the record
// after its position, so a Recv reads and decodes only the records it
// returns; a fresh stream's first Recv finds the segment and skips to the
// record by frame headers alone. Streams are safe for one reader; Close
// may be called from any goroutine to unblock a pending Recv.
type Stream struct {
	w   *WAL
	pos uint64 // last seq delivered (guarded by w.mu)
	cur cursor // where record pos+1 starts (read and written by Recv only)
}

// cursor locates one record in the log: the segment holding it, named for
// that segment's first seq, and the record's byte offset in the segment.
// The zero cursor is unset.
type cursor struct {
	seg uint64
	off int64
}

// Stream opens a tail reader delivering durable events with Seq > fromSeq.
// It fails with ErrCompacted when those events are no longer on disk, and
// rejects a fromSeq beyond the log's end (the caller claims history this WAL
// never wrote).
func (w *WAL) Stream(fromSeq uint64) (*Stream, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, ErrWALClosed
	}
	if w.err != nil {
		return nil, w.err
	}
	if fromSeq > w.seq {
		return nil, fmt.Errorf("store: stream from seq %d beyond log end %d", fromSeq, w.seq)
	}
	if fromSeq < w.seq { // a pure tail (fromSeq == seq) needs no history on disk
		segs, _, err := listLog(w.cfg.Dir)
		if err != nil {
			return nil, err
		}
		if len(segs) == 0 || fromSeq+1 < segs[0].firstSeq {
			oldest := w.seq + 1
			if len(segs) > 0 {
				oldest = segs[0].firstSeq
			}
			return nil, fmt.Errorf("%w: want seq %d, oldest on disk %d", ErrCompacted, fromSeq+1, oldest)
		}
	}
	s := &Stream{w: w, pos: fromSeq}
	w.streams[s] = struct{}{}
	return s, nil
}

// Recv blocks until at least one event past the stream's position is
// durable, then returns the batch of durable events in sequence order,
// starting at position+1, and moves the stream's position and cursor past
// it. It returns ErrStreamClosed after Close, ErrWALClosed once the WAL
// shuts down with nothing left to deliver, or the WAL's sticky error, and a
// "stream gap" error when the log on disk does not hold position+1 where
// the cursor says; on any error the position and cursor stay put.
func (s *Stream) Recv() ([]Event, error) {
	w := s.w
	w.mu.Lock()
	for {
		if _, open := w.streams[s]; !open {
			w.mu.Unlock()
			return nil, ErrStreamClosed
		}
		if w.err != nil {
			err := w.err
			w.mu.Unlock()
			return nil, err
		}
		if w.durable > s.pos {
			break
		}
		if w.closed {
			w.mu.Unlock()
			return nil, ErrWALClosed
		}
		w.cond.Wait()
	}
	durable := w.durable
	pos := s.pos
	w.mu.Unlock()

	events, cur, err := readEventRange(w.cfg.Dir, s.cur, pos, durable)
	if err != nil {
		return nil, err
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("store: stream gap: no events in (%d, %d] on disk", pos, durable)
	}
	s.cur = cur
	w.mu.Lock()
	s.pos = events[len(events)-1].Seq
	w.mu.Unlock()
	return events, nil
}

// Close detaches the stream from the WAL, releasing its retention pin and
// waking any pending Recv with ErrStreamClosed. Idempotent.
func (s *Stream) Close() {
	w := s.w
	w.mu.Lock()
	delete(w.streams, s)
	w.cond.Broadcast()
	w.mu.Unlock()
}

// readEventRange reads the events with seq in (fromSeq, upto] from the
// segments under dir and returns them with the cursor just past the last
// one (the cursor it was given when there are none). at locates record
// fromSeq+1; when it is unset, the read starts at the segment that holds
// that record and skips the records before it by their frame headers
// (skipRecords), without reading or decoding their payloads. Seqs are
// contiguous within and across segments (Append numbers w.seq+1, a
// segment is named for its first record, recovery appends after the last
// valid one), so the read counts its way to each record and moves on to
// the segment named for the next seq when one ends. A decoded record whose
// seq is not the one counted to is a "stream gap" error. Frames past upto
// are never decoded: the flusher writes a batch before it advances the
// durable seq. Retention pins guarantee the segments outlive the read (see
// compact); a segment already compacted away when the cursor reaches its
// end has nothing left to read.
func readEventRange(dir string, at cursor, fromSeq, upto uint64) ([]Event, cursor, error) {
	cur := at
	next := fromSeq + 1 // seq of the next event to return
	seq := next         // seq of the record at cur
	if cur.seg == 0 {
		segs, _, err := listLog(dir)
		if err != nil {
			return nil, at, err
		}
		i := sort.Search(len(segs), func(i int) bool { return segs[i].firstSeq > next }) - 1
		if i < 0 {
			return nil, at, nil
		}
		cur = cursor{seg: segs[i].firstSeq}
		seq = cur.seg
	}
	var out []Event
	for next <= upto {
		path := filepath.Join(dir, segmentName(cur.seg))
		if seq < next { // skipping to the first wanted record
			var err error
			if cur.off, seq, err = skipRecords(path, cur.off, seq, next); err != nil {
				return nil, at, err
			}
		}
		data, err := readFileFrom(path, cur.off)
		if err != nil {
			return nil, at, err
		}
		var off int64
		for next <= upto && seq == next {
			payload, end, ok := readFrame(data, off)
			if !ok {
				break
			}
			var ev Event
			if err := json.Unmarshal(payload, &ev); err != nil {
				return nil, at, fmt.Errorf("store: decode record at %s+%d: %w", segmentName(cur.seg), cur.off+off, err)
			}
			if ev.Seq != next {
				return nil, at, fmt.Errorf("store: stream gap: record at %s+%d has seq %d, want %d", segmentName(cur.seg), cur.off+off, ev.Seq, next)
			}
			out = append(out, ev)
			off, seq, next = end, seq+1, next+1
		}
		cur.off += off
		if next > upto {
			break
		}
		if off < int64(len(data)) {
			return nil, at, fmt.Errorf("store: stream gap: torn record at %s+%d, want seq %d", segmentName(cur.seg), cur.off, next)
		}
		if cur.seg == seq { // the segment named for the record we need is empty or absent
			break
		}
		cur = cursor{seg: seq}
	}
	if len(out) == 0 {
		return nil, at, nil
	}
	return out, cur, nil
}

// skipWindow is how many bytes of a segment skipRecords reads at a time.
// 64 KiB is the largest constant-size buffer the compiler keeps on the
// stack, so the walk allocates nothing on the heap.
const skipWindow = 64 << 10

// skipRecords walks the frame headers of the segment at path from off,
// where record seq starts, and returns the offset and seq of record next,
// or of the first frame that is torn or runs past the file's end if that
// comes first. It reads the segment through one fixed window and never
// looks at a payload, so a fresh stream holds the window, not the bytes
// it skips. A missing file has no records to skip.
func skipRecords(path string, off int64, seq, next uint64) (int64, uint64, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return off, seq, nil
	}
	if err != nil {
		return off, seq, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return off, seq, fmt.Errorf("store: %w", err)
	}
	size := fi.Size()
	window := make([]byte, skipWindow)
	winOff, winEnd := off, off // window holds the file's bytes [winOff, winEnd)
	for seq < next && off+recordHeaderLen <= size {
		if off+recordHeaderLen > winEnd {
			n, err := f.ReadAt(window, off)
			if n < recordHeaderLen {
				if errors.Is(err, io.EOF) {
					break // the file shrank under the walk
				}
				return off, seq, fmt.Errorf("store: %w", err)
			}
			winOff, winEnd = off, off+int64(n)
		}
		n := int64(binary.LittleEndian.Uint32(window[off-winOff:]))
		if n > maxRecordBytes || off+recordHeaderLen+n > size {
			break
		}
		off, seq = off+recordHeaderLen+n, seq+1
	}
	return off, seq, nil
}

// readFileFrom returns the bytes of the file at path from off to its
// current end; a missing file reads as empty.
func readFileFrom(path string, off int64) ([]byte, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if fi.Size() <= off {
		return nil, nil
	}
	data := make([]byte, fi.Size()-off)
	n, err := f.ReadAt(data, off)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("store: %w", err)
	}
	return data[:n], nil
}

// minStreamPosLocked is the earliest position any live stream still needs;
// compaction must retain every event past it. Caller holds w.mu.
func (w *WAL) minStreamPosLocked() (uint64, bool) {
	var minPos uint64
	found := false
	for s := range w.streams {
		if !found || s.pos < minPos {
			minPos = s.pos
			found = true
		}
	}
	return minPos, found
}

// SnapshotNow returns a consistent clone of the WAL's live state and the
// sequence number it covers — the bootstrap payload for a replica too far
// behind to stream (ErrCompacted). The seq may exceed the durable horizon:
// the state reflects every append, flushed or not.
func (w *WAL) SnapshotNow() (*State, uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, 0, ErrWALClosed
	}
	if w.err != nil {
		return nil, 0, w.err
	}
	st, err := w.state.Clone()
	if err != nil {
		return nil, 0, err
	}
	return st, w.seq, nil
}

// LastSeq reports the highest durable (fsynced) sequence number — the
// position a replica should resume streaming from.
func (w *WAL) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durable
}

// InitSnapshot seeds an empty state directory with a snapshot covering seq
// and an empty segment positioned after it, so OpenWAL recovers straight to
// the snapshot — how a replica bootstraps when the leader's log prefix was
// compacted away. The directory must hold no log files yet.
func InitSnapshot(dir string, st *State, seq uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	segs, snaps, err := listLog(dir)
	if err != nil {
		return err
	}
	if len(segs) > 0 || len(snaps) > 0 {
		return fmt.Errorf("store: init snapshot into non-empty log dir %s", dir)
	}
	data, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("store: marshal snapshot: %w", err)
	}
	framed, err := frame(data)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, snapshotName(seq))
	tmp := path + ".tmp"
	if err := writeFileSync(tmp, framed); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: publish snapshot: %w", err)
	}
	if err := writeFileSync(filepath.Join(dir, segmentName(seq+1)), nil); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: fsync dir: %w", err)
	}
	return nil
}

func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if len(data) > 0 {
		if _, err := f.Write(data); err != nil {
			f.Close()
			return fmt.Errorf("store: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	return f.Close()
}
