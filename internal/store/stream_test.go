package store

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// recvAll drains the stream until n events arrived or the deadline passes.
func recvAll(t *testing.T, s *Stream, n int) []Event {
	t.Helper()
	got := make([]Event, 0, n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for len(got) < n {
			batch, err := s.Recv()
			if err != nil {
				t.Errorf("recv after %d events: %v", len(got), err)
				return
			}
			got = append(got, batch...)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("stream delivered %d of %d events before timeout", len(got), n)
	}
	return got
}

// checkContiguous verifies the events cover seqs from+1 .. from+len exactly.
func checkContiguous(t *testing.T, events []Event, from uint64) {
	t.Helper()
	for i, ev := range events {
		if want := from + uint64(i) + 1; ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
}

func TestStreamTailDelivers(t *testing.T) {
	w, _, err := OpenWAL(WALConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s, err := w.Stream(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	events := campaignLifecycle("c")
	appendAll(t, w, events)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	got := recvAll(t, s, len(events))
	checkContiguous(t, got, 0)
	for i, ev := range got {
		if ev.Type != events[i].Type || ev.Campaign != events[i].Campaign {
			t.Fatalf("event %d = %s/%s, want %s/%s", i, ev.Type, ev.Campaign, events[i].Type, events[i].Campaign)
		}
	}

	// The tail keeps following later appends.
	more := campaignLifecycle("d")
	appendAll(t, w, more)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	got = recvAll(t, s, len(more))
	checkContiguous(t, got, uint64(len(events)))
}

func TestStreamResumesMidLog(t *testing.T) {
	w, _, err := OpenWAL(WALConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	events := campaignLifecycle("c")
	appendAll(t, w, events)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}

	from := uint64(3)
	s, err := w.Stream(from)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := recvAll(t, s, len(events)-int(from))
	checkContiguous(t, got, from)
}

func TestStreamCloseUnblocksRecv(t *testing.T) {
	w, _, err := OpenWAL(WALConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s, err := w.Stream(0)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := s.Recv()
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let Recv park on the cond
	s.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrStreamClosed) {
			t.Fatalf("recv after close = %v, want ErrStreamClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("close did not unblock Recv")
	}
}

func TestStreamWALCloseUnblocksRecv(t *testing.T) {
	w, _, err := OpenWAL(WALConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s, err := w.Stream(0)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := s.Recv()
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrWALClosed) {
			t.Fatalf("recv after wal close = %v, want ErrWALClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("wal close did not unblock Recv")
	}
}

// TestStreamMidCompactionReads is the satellite's core case: a stream opened
// at the log's start, left unread while every synced batch rotates the
// segment (1-byte budget), must still deliver the complete event sequence —
// its retention pin forbids compaction from deleting unread segments.
func TestStreamMidCompactionReads(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(WALConfig{Dir: dir, SegmentBytes: 1, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s, err := w.Stream(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var total int
	for _, id := range []string{"c1", "c2", "c3"} {
		for _, ev := range campaignLifecycle(id) {
			if err := w.Append(ev); err != nil {
				t.Fatal(err)
			}
			if err := w.Sync(); err != nil { // every batch rotates
				t.Fatal(err)
			}
			total++
		}
	}

	// The pin held: the first segment is still on disk.
	segs, _, err := listLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 || segs[0].firstSeq != 1 {
		t.Fatalf("oldest segment starts at %d, want 1 (stream pin ignored)", segs[0].firstSeq)
	}

	got := recvAll(t, s, total)
	checkContiguous(t, got, 0)

	// Release the pin; the next rotations may compact the old segments away.
	s.Close()
	for _, ev := range campaignLifecycle("c4") {
		if err := w.Append(ev); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		segs, _, err := listLog(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) > 0 && segs[0].firstSeq > 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("compaction never resumed after stream close (oldest seg %d)", segs[0].firstSeq)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamConcurrentWithRotation tails the log from a second goroutine
// while the writer forces a rotation per batch — the race detector's view of
// the pin/read interleaving.
func TestStreamConcurrentWithRotation(t *testing.T) {
	w, _, err := OpenWAL(WALConfig{Dir: t.TempDir(), SegmentBytes: 1, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s, err := w.Stream(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var total int
	ids := []string{"c1", "c2", "c3", "c4"}
	for _, id := range ids {
		total += len(campaignLifecycle(id))
	}
	type result struct {
		events []Event
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		var got []Event
		for len(got) < total {
			batch, err := s.Recv()
			if err != nil {
				resc <- result{got, err}
				return
			}
			got = append(got, batch...)
		}
		resc <- result{got, nil}
	}()

	for _, id := range ids {
		for _, ev := range campaignLifecycle(id) {
			if err := w.Append(ev); err != nil {
				t.Fatal(err)
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	select {
	case res := <-resc:
		if res.err != nil {
			t.Fatalf("concurrent recv: %v after %d events", res.err, len(res.events))
		}
		checkContiguous(t, res.events, 0)
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent tail timed out")
	}
}

func TestStreamCompactedPrefix(t *testing.T) {
	dir := t.TempDir()
	events := append(campaignLifecycle("c1"), campaignLifecycle("c2")...)
	rotateEveryEvent(t, dir, events) // closes the WAL with old segments compacted

	w, _, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Stream(0); !errors.Is(err, ErrCompacted) {
		t.Fatalf("stream from compacted prefix = %v, want ErrCompacted", err)
	}
	// A pure tail from the durable end always works.
	s, err := w.Stream(w.LastSeq())
	if err != nil {
		t.Fatalf("tail stream: %v", err)
	}
	s.Close()
}

func TestStreamBeyondEndRejected(t *testing.T) {
	w, _, err := OpenWAL(WALConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Stream(5); err == nil || errors.Is(err, ErrCompacted) {
		t.Fatalf("stream beyond log end = %v, want plain error", err)
	}
}

func TestSnapshotNowAndInitSnapshot(t *testing.T) {
	leaderDir := t.TempDir()
	w, _, err := OpenWAL(WALConfig{Dir: leaderDir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	events := campaignLifecycle("c")
	appendAll(t, w, events)
	st, seq, err := w.SnapshotNow()
	if err != nil {
		t.Fatal(err)
	}
	if seq != uint64(len(events)) {
		t.Fatalf("snapshot seq = %d, want %d", seq, len(events))
	}

	replicaDir := t.TempDir()
	if err := InitSnapshot(replicaDir, st, seq); err != nil {
		t.Fatal(err)
	}
	if err := InitSnapshot(replicaDir, st, seq); err == nil {
		t.Fatal("init into non-empty dir should fail")
	}

	rw, rst, err := OpenWAL(WALConfig{Dir: replicaDir})
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	if a, b := mustJSON(t, rst), mustJSON(t, st); a != b {
		t.Errorf("bootstrapped state diverged:\ngot  %s\nwant %s", a, b)
	}
	// The replica appends exactly where the snapshot ends: the next event
	// gets seq+1, keeping replicated seqs aligned with the leader's.
	if err := rw.Append(Event{Type: EventCampaignRegistered, Campaign: "d", Spec: testSpec("d")}); err != nil {
		t.Fatal(err)
	}
	if err := rw.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := rw.LastSeq(); got != seq+1 {
		t.Errorf("replica durable seq = %d, want %d", got, seq+1)
	}
}

// TestStreamRecvGapLeavesPosition: a cursor planted on the wrong record
// makes Recv fail with a stream gap, leaving the position and cursor where
// they were; the error never reaches the wire as a batch that skips events.
func TestStreamRecvGapLeavesPosition(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	events := campaignLifecycle("c")
	appendAll(t, w, events)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	const from = 5
	s, err := w.Stream(from)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, atSeq3, err := readEventRange(dir, cursor{}, 0, 2) // the cursor on record 3
	if err != nil {
		t.Fatal(err)
	}
	s.cur = atSeq3
	if _, err := s.Recv(); err == nil || !strings.Contains(err.Error(), "stream gap") {
		t.Fatalf("recv from a cursor on seq 3 at position %d = %v, want a stream gap error", from, err)
	}
	if s.pos != from || s.cur != atSeq3 {
		t.Fatalf("failed recv moved the stream to pos %d cursor %+v, want %d %+v", s.pos, s.cur, from, atSeq3)
	}

	s.cur = cursor{} // a fresh cursor finds record from+1 again
	got := recvAll(t, s, len(events)-from)
	checkContiguous(t, got, from)
}

// TestStreamSplitReads: reading (0,k] and then (k,n] from the cursor the
// first read returned yields exactly the events of one (0,n] read, for
// random splits over a log that rotated several times, for every split on
// a segment boundary, and for chains whose middle read stops short of
// records already on disk.
func TestStreamSplitReads(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(WALConfig{Dir: dir, SegmentBytes: 2 << 10, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	pin, err := w.Stream(0) // keeps compaction from deleting the early segments
	if err != nil {
		t.Fatal(err)
	}
	defer pin.Close()
	for c := 0; c < 12; c++ {
		appendAll(t, w, campaignLifecycle(fmt.Sprintf("c%d", c)))
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	n := w.LastSeq()
	segs, _, err := listLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("log has %d segments, want at least 3", len(segs))
	}
	whole, _, err := readEventRange(dir, cursor{}, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(whole)) != n {
		t.Fatalf("(0,%d] read %d events", n, len(whole))
	}
	checkContiguous(t, whole, 0)

	// readChain reads (0,n] in pieces ending at each cut, carrying the cursor.
	readChain := func(cuts ...uint64) []Event {
		t.Helper()
		var got []Event
		var cur cursor
		from := uint64(0)
		for _, upto := range append(cuts, n) {
			events, next, err := readEventRange(dir, cur, from, upto)
			if err != nil {
				t.Fatalf("cuts %v: read (%d,%d]: %v", cuts, from, upto, err)
			}
			got = append(got, events...)
			cur, from = next, upto
		}
		return got
	}
	var splits [][]uint64
	for _, seg := range segs[1:] {
		splits = append(splits, []uint64{seg.firstSeq - 1}, []uint64{seg.firstSeq})
	}
	rng := rand.New(rand.NewSource(1))
	for range 50 {
		a, b := 1+uint64(rng.Int63n(int64(n-1))), 1+uint64(rng.Int63n(int64(n-1)))
		splits = append(splits, []uint64{a}, []uint64{min(a, b), max(a, b)})
	}
	for _, cuts := range splits {
		got := readChain(cuts...)
		if len(got) != len(whole) {
			t.Fatalf("split at %v read %d events, want %d", cuts, len(got), len(whole))
		}
		for i := range got {
			if a, b := mustJSON(t, got[i]), mustJSON(t, whole[i]); a != b {
				t.Fatalf("split at %v: event %d = %s, want %s", cuts, i, a, b)
			}
		}
	}
}

// appendN appends the first n events of consecutive campaign lifecycles
// named prefix0, prefix1, …
func appendN(tb testing.TB, w *WAL, prefix string, n int) {
	tb.Helper()
	for c := 0; n > 0; c++ {
		for _, ev := range campaignLifecycle(fmt.Sprintf("%s%d", prefix, c)) {
			if n == 0 {
				break
			}
			if err := w.Append(ev); err != nil {
				tb.Fatal(err)
			}
			n--
		}
	}
}

// caughtUpStream returns a stream that has delivered the first offset
// events of a one-segment log, with tail more events durable after them,
// and a rewind that puts the stream back at offset — so every Recv after a
// rewind is the same steady-state read of the tail batch.
func caughtUpStream(tb testing.TB, offset, tail int) (w *WAL, s *Stream, rewind func()) {
	tb.Helper()
	w, _, err := OpenWAL(WALConfig{Dir: tb.TempDir(), SegmentBytes: 1 << 30, FlushInterval: time.Hour})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { w.Close() })
	appendN(tb, w, "c", offset)
	if err := w.Sync(); err != nil {
		tb.Fatal(err)
	}
	if s, err = w.Stream(0); err != nil {
		tb.Fatal(err)
	}
	for delivered := 0; delivered < offset; {
		events, err := s.Recv()
		if err != nil {
			tb.Fatal(err)
		}
		delivered += len(events)
	}
	w.mu.Lock()
	caught := *s
	w.mu.Unlock()
	appendN(tb, w, "t", tail)
	if err := w.Sync(); err != nil {
		tb.Fatal(err)
	}
	return w, s, func() {
		w.mu.Lock()
		*s = caught
		w.mu.Unlock()
	}
}

// TestStreamRecvCostFlat: a caught-up stream's Recv of the next 16 events
// allocates about the same at 16k events into the segment as at 1k — it
// reads the batch, not the segment.
func TestStreamRecvCostFlat(t *testing.T) {
	const tail, runs = 16, 20
	bytesPerRecv := func(offset int) uint64 {
		_, s, rewind := caughtUpStream(t, offset, tail)
		defer s.Close()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			rewind()
			if events, err := s.Recv(); err != nil || len(events) != tail {
				t.Fatalf("recv at offset %d: %d events, err %v; want %d", offset, len(events), err, tail)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	small, large := bytesPerRecv(1<<10), bytesPerRecv(16<<10)
	t.Logf("steady Recv of %d events: %d B at 1k events in, %d B at 16k", tail, small, large)
	if large > 2*small {
		t.Fatalf("steady Recv allocates %d B at 16k events in, %d B at 1k: want at most 2x", large, small)
	}
}

// BenchmarkStreamRecv times one Recv of a short tail batch (the replication
// steady state: a follower one group commit behind) at growing offsets into
// one unrotated segment, in two shapes. offset=N opens a fresh stream at N
// for each Recv, which finds the segment and skips N records by their frame
// headers before decoding the batch; steady/offset=N rewinds a stream
// already caught up to N, whose cursor lets Recv read and decode only the
// batch, so its cost stays flat as N grows.
func BenchmarkStreamRecv(b *testing.B) {
	const tail = 16
	for _, offset := range []int{1 << 10, 8 << 10, 32 << 10} {
		w, _, err := OpenWAL(WALConfig{Dir: b.TempDir(), SegmentBytes: 1 << 30, FlushInterval: time.Hour})
		if err != nil {
			b.Fatal(err)
		}
		appendN(b, w, "c", offset+tail)
		if err := w.Sync(); err != nil {
			b.Fatal(err)
		}
		if segs, _, err := listLog(w.cfg.Dir); err != nil || len(segs) != 1 {
			b.Fatalf("want one segment, got %d (%v)", len(segs), err)
		}
		b.Run(fmt.Sprintf("offset=%dk", offset>>10), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := w.Stream(uint64(offset))
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				events, err := s.Recv()
				b.StopTimer()
				s.Close()
				if err != nil || len(events) != tail {
					b.Fatalf("recv: %d events, err %v; want %d", len(events), err, tail)
				}
				b.StartTimer()
			}
		})
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
	for _, offset := range []int{1 << 10, 8 << 10, 32 << 10} {
		b.Run(fmt.Sprintf("steady/offset=%dk", offset>>10), func(b *testing.B) {
			_, s, rewind := caughtUpStream(b, offset, tail)
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rewind()
				b.StartTimer()
				events, err := s.Recv()
				if err != nil || len(events) != tail {
					b.Fatalf("recv: %d events, err %v; want %d", len(events), err, tail)
				}
			}
		})
	}
}
