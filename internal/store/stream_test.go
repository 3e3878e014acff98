package store

import (
	"errors"
	"fmt"
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

// BenchmarkStreamRecv times one Recv of a short tail batch (the replication
// steady state: a follower one group commit behind) at growing offsets into
// one unrotated segment. Recv re-reads and decodes the segment from its
// start on every call, so ns/op and B/op grow with the offset although the
// batch it returns stays the same size.
func BenchmarkStreamRecv(b *testing.B) {
	const tail = 16
	for _, offset := range []int{1 << 10, 8 << 10, 32 << 10} {
		w, _, err := OpenWAL(WALConfig{Dir: b.TempDir(), SegmentBytes: 1 << 30, FlushInterval: time.Hour})
		if err != nil {
			b.Fatal(err)
		}
		for c, n := 0, 0; n < offset+tail; c++ {
			for _, ev := range campaignLifecycle(fmt.Sprintf("c%d", c)) {
				if n == offset+tail {
					break
				}
				if err := w.Append(ev); err != nil {
					b.Fatal(err)
				}
				n++
			}
		}
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
}
