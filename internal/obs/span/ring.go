package span

import "sync/atomic"

// DefaultRingCapacity sizes a zero-capacity NewRing.
const DefaultRingCapacity = 512

// ringEntry pairs a record with its ring sequence number so readers can
// detect slots overwritten mid-read.
type ringEntry struct {
	seq uint64
	rec *Record
}

// Ring is a bounded, lock-free sink holding the most recent span records —
// the in-memory view behind the /debug/spans and /debug/rounds ops
// endpoints. Writers claim a slot with one atomic increment and publish with
// one pointer store; the ring overwrites its oldest entries once full, so
// memory stays bounded no matter how long the producer lives.
type Ring struct {
	slots []atomic.Pointer[ringEntry]
	mask  uint64
	next  atomic.Uint64
}

var _ Sink = (*Ring)(nil)

// NewRing creates a ring holding at least capacity records (rounded up to a
// power of two; non-positive means DefaultRingCapacity).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &Ring{
		slots: make([]atomic.Pointer[ringEntry], size),
		mask:  uint64(size - 1),
	}
}

// Emit implements Sink. Safe for concurrent use; never blocks.
func (r *Ring) Emit(rec *Record) {
	seq := r.next.Add(1) - 1
	r.slots[seq&r.mask].Store(&ringEntry{seq: seq, rec: rec})
}

// Emitted reports how many records have ever been emitted (including ones
// the ring has since overwritten).
func (r *Ring) Emitted() uint64 { return r.next.Load() }

// Cap reports the ring's capacity.
func (r *Ring) Cap() int { return len(r.slots) }

// Recent returns up to n of the most recent records, oldest first.
// Concurrent writers may overwrite slots mid-read; such slots are detected
// by their sequence stamp and skipped, so the result is always a subset of
// real records in emission order, never a torn one.
func (r *Ring) Recent(n int) []Record {
	if n <= 0 {
		return nil
	}
	hi := r.next.Load()
	lo := uint64(0)
	if size := uint64(len(r.slots)); hi > size {
		lo = hi - size
	}
	if hi-lo > uint64(n) {
		lo = hi - uint64(n)
	}
	out := make([]Record, 0, hi-lo)
	for seq := lo; seq < hi; seq++ {
		e := r.slots[seq&r.mask].Load()
		if e == nil || e.seq != seq {
			continue // overwritten (or not yet published) during the read
		}
		out = append(out, *e.rec)
	}
	return out
}
