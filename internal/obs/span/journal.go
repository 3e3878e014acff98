package span

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Journal rotation defaults.
const (
	// DefaultJournalMaxBytes rotates the active journal file at 64 MiB.
	DefaultJournalMaxBytes = 64 << 20
	// DefaultJournalMaxFiles keeps three rotated generations
	// (path.1 … path.3) besides the active file.
	DefaultJournalMaxFiles = 3

	journalBufferSize = 64 << 10

	// journalQueueSize bounds the async write queue; Emit drops (and counts)
	// records once the writer falls this far behind.
	journalQueueSize = 4096
)

// JournalConfig parameterizes a durable span journal.
type JournalConfig struct {
	// Path is the active journal file; rotated generations live next to it
	// as Path.1 (newest) … Path.N (oldest).
	Path string
	// MaxBytes rotates the active file once a write would push it past this
	// size. Non-positive means DefaultJournalMaxBytes.
	MaxBytes int64
	// MaxFiles bounds how many rotated generations are kept; older ones are
	// deleted. Non-positive means DefaultJournalMaxFiles.
	MaxFiles int
	// Node names the process writing this journal. When set, it is stamped
	// into records that carry no node of their own and written as a header
	// line at the top of every fresh journal file, so obsctl stitch can
	// identify a journal's node even before its first span.
	Node string
}

func (c JournalConfig) maxBytes() int64 {
	if c.MaxBytes <= 0 {
		return DefaultJournalMaxBytes
	}
	return c.MaxBytes
}

func (c JournalConfig) maxFiles() int {
	if c.MaxFiles <= 0 {
		return DefaultJournalMaxFiles
	}
	return c.MaxFiles
}

// Journal is a durable append-only span sink: one JSON line per record,
// buffered writes, size-based rotation. It generalizes the platform's
// per-round audit journal into a unified event stream — every span the
// engine, mechanisms, and solvers emit lands here in completion order, ready
// for obsctl to tail, summarize, or convert to a Perfetto timeline.
//
// Emit stays off the auction's critical path: it enqueues the record onto a
// bounded queue and a dedicated writer goroutine does the marshalling,
// rotation, and I/O. Emit never returns an error or blocks (Sink's
// contract); records that can't be queued — writer too far behind, journal
// closed — are counted in Dropped, and the first write/rotation failure is
// retained for Err. Close drains the queue, then flushes and closes the
// active file.
type Journal struct {
	cfg JournalConfig

	// mu guards closed so Emit's queue send never races Close's close(ch).
	mu     sync.RWMutex
	closed bool
	ch     chan journalOp
	done   chan struct{}

	errMu   sync.Mutex
	err     error
	dropped atomic.Uint64

	// Writer health, exported as metric families by internal/obs.
	rotations    atomic.Uint64
	bytesWritten atomic.Uint64

	// Writer-goroutine state; untouched elsewhere after OpenJournal.
	f    *os.File
	w    *bufio.Writer
	size int64
	buf  []byte // reused line-encoding buffer
}

// journalOp is one queue entry: a record to append, or (rec nil) a flush
// request acknowledged on the flush channel.
type journalOp struct {
	rec   *Record
	flush chan error
}

var _ Sink = (*Journal)(nil)

// OpenJournal opens (appending) or creates the journal's active file.
func OpenJournal(cfg JournalConfig) (*Journal, error) {
	if cfg.Path == "" {
		return nil, fmt.Errorf("span: journal path must be non-empty")
	}
	f, err := os.OpenFile(cfg.Path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("span: open journal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("span: stat journal: %w", err)
	}
	j := &Journal{
		cfg:  cfg,
		ch:   make(chan journalOp, journalQueueSize),
		done: make(chan struct{}),
		f:    f,
		w:    bufio.NewWriterSize(f, journalBufferSize),
		size: st.Size(),
	}
	if j.size == 0 {
		j.writeHeader() // before writeLoop starts; the writer state is still ours
	}
	go j.writeLoop()
	return j, nil
}

// writeHeader stamps a fresh journal file with the writing node's identity:
// a record-shaped line with an empty name, which ReadJournal skips and
// stitch reads for the file's node. Runs on the writer goroutine (or before
// it starts). No header is written for an anonymous journal, keeping
// single-node journals byte-compatible with earlier releases.
func (j *Journal) writeHeader() {
	if j.cfg.Node == "" || j.f == nil {
		return
	}
	rec := Record{Node: j.cfg.Node, Start: time.Now()}
	// A fresh buffer, not j.buf: writeRecord calls in here mid-rotation with
	// its own encoded line still aliasing j.buf.
	line := append(appendRecord(nil, &rec), '\n')
	n, err := j.w.Write(line)
	j.size += int64(n)
	j.bytesWritten.Add(uint64(n))
	if err != nil {
		j.recordErr(err)
	}
}

// Emit implements Sink: enqueue one record for the writer goroutine. The
// queue send never blocks; when the writer is too far behind (or the
// journal is closed) the record is dropped and counted.
func (j *Journal) Emit(rec *Record) {
	j.mu.RLock()
	defer j.mu.RUnlock()
	if j.closed {
		j.dropped.Add(1)
		return
	}
	select {
	case j.ch <- journalOp{rec: rec}:
	default:
		j.dropped.Add(1)
	}
}

// writeLoop is the writer goroutine: it drains the queue in order, so a
// flush request acknowledges only after every record queued before it is
// through the bufio layer. It exits when Close closes the queue, flushing
// and closing the active file on the way out.
func (j *Journal) writeLoop() {
	defer close(j.done)
	for op := range j.ch {
		if op.flush != nil {
			op.flush <- j.flushFile()
			continue
		}
		j.writeRecord(op.rec)
	}
	if j.w != nil {
		if err := j.w.Flush(); err != nil {
			j.recordErr(err)
		}
	}
	if j.f != nil {
		if err := j.f.Close(); err != nil {
			j.recordErr(err)
		}
		j.f, j.w = nil, nil
	}
}

// writeRecord encodes one record and appends it as a JSON line, rotating
// first when the line would push the active file past MaxBytes.
func (j *Journal) writeRecord(rec *Record) {
	if j.f == nil {
		j.dropped.Add(1)
		return // a rotation failed earlier; the stream is gone
	}
	if j.cfg.Node != "" && rec.Node == "" {
		// Stamp anonymous records with the journal's node. The record is
		// shared with other sinks (the ring retains the same pointer), so
		// stamp a copy rather than mutating it.
		stamped := *rec
		stamped.Node = j.cfg.Node
		rec = &stamped
	}
	j.buf = appendRecord(j.buf[:0], rec)
	line := append(j.buf, '\n')
	if j.size+int64(len(line)) > j.cfg.maxBytes() && j.size > 0 {
		if err := j.rotate(); err != nil {
			j.recordErr(err)
			return
		}
		j.writeHeader()
	}
	n, err := j.w.Write(line)
	j.size += int64(n)
	j.bytesWritten.Add(uint64(n))
	if err != nil {
		j.recordErr(err)
	}
}

func (j *Journal) flushFile() error {
	if j.w == nil {
		return j.Err()
	}
	return j.w.Flush()
}

// rotate flushes and closes the active file, shifts the rotated
// generations (path.1 → path.2 …, dropping the oldest), moves the active
// file to path.1, and reopens a fresh active file.
func (j *Journal) rotate() error {
	if err := j.w.Flush(); err != nil {
		return err
	}
	if err := j.f.Close(); err != nil {
		return err
	}
	maxFiles := j.cfg.maxFiles()
	os.Remove(fmt.Sprintf("%s.%d", j.cfg.Path, maxFiles))
	for i := maxFiles - 1; i >= 1; i-- {
		from := fmt.Sprintf("%s.%d", j.cfg.Path, i)
		if _, err := os.Stat(from); err == nil {
			if err := os.Rename(from, fmt.Sprintf("%s.%d", j.cfg.Path, i+1)); err != nil {
				return err
			}
		}
	}
	if err := os.Rename(j.cfg.Path, j.cfg.Path+".1"); err != nil {
		return err
	}
	f, err := os.OpenFile(j.cfg.Path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		j.f, j.w = nil, nil
		return err
	}
	j.f = f
	j.w = bufio.NewWriterSize(f, journalBufferSize)
	j.size = 0
	j.rotations.Add(1)
	return nil
}

func (j *Journal) recordErr(err error) {
	j.dropped.Add(1)
	j.errMu.Lock()
	defer j.errMu.Unlock()
	if j.err == nil {
		j.err = err
	}
}

// Flush pushes every record already emitted through the bufio layer to
// disk, waiting for the writer goroutine to catch up first.
func (j *Journal) Flush() error {
	j.mu.RLock()
	if j.closed {
		j.mu.RUnlock()
		return j.Err()
	}
	ack := make(chan error, 1)
	j.ch <- journalOp{flush: ack}
	j.mu.RUnlock()
	return <-ack
}

// Dropped reports how many records failed to reach the journal.
func (j *Journal) Dropped() uint64 { return j.dropped.Load() }

// Rotations reports how many times the active file has rotated.
func (j *Journal) Rotations() uint64 { return j.rotations.Load() }

// BytesWritten reports how many journal bytes have been handed to the bufio
// layer (headers included) since the journal opened.
func (j *Journal) BytesWritten() uint64 { return j.bytesWritten.Load() }

// Node returns the node identity this journal stamps, "" when anonymous.
func (j *Journal) Node() string { return j.cfg.Node }

// Err returns the first write/rotation error, if any.
func (j *Journal) Err() error {
	j.errMu.Lock()
	defer j.errMu.Unlock()
	return j.err
}

// Close drains the queue, then flushes and closes the journal; later Emits
// are counted as dropped.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return j.Err()
	}
	j.closed = true
	close(j.ch)
	j.mu.Unlock()
	<-j.done
	return j.Err()
}

// ReadJournal decodes every record from one JSONL stream. Header lines —
// node-identity records with an empty name — are skipped.
func ReadJournal(r io.Reader) ([]Record, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	var recs []Record
	for {
		var rec Record
		if err := dec.Decode(&rec); err == io.EOF {
			return recs, nil
		} else if err != nil {
			return nil, fmt.Errorf("span: read journal record %d: %w", len(recs), err)
		}
		if rec.Name == "" {
			continue // file header
		}
		recs = append(recs, rec)
	}
}

// ReadJournalFile reads one journal file.
func ReadJournalFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadJournal(f)
}
