package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(data)
}

// campaignLifecycle is a full two-round campaign as the engine would emit it.
func campaignLifecycle(id string) []Event {
	events := []Event{{Type: EventCampaignRegistered, Campaign: id, Spec: testSpec(id)}}
	events = append(events, roundEvents(id, 1)...)
	events = append(events, roundEvents(id, 2)...)
	return append(events, Event{Type: EventCampaignFinished, Campaign: id})
}

func appendAll(t *testing.T, w *WAL, events []Event) {
	t.Helper()
	for _, ev := range events {
		if err := w.Append(ev); err != nil {
			t.Fatalf("append %s: %v", ev.Type, err)
		}
	}
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, recovered, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered.Campaigns) != 0 {
		t.Errorf("fresh log recovered %d campaigns", len(recovered.Campaigns))
	}
	events := campaignLifecycle("c")
	appendAll(t, w, events)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The recovered state must equal the same events folded directly.
	want := NewState()
	for i, ev := range events {
		ev.Seq = uint64(i + 1)
		if err := Apply(want, ev); err != nil {
			t.Fatal(err)
		}
	}
	w2, got, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if a, b := mustJSON(t, got), mustJSON(t, want); a != b {
		t.Errorf("recovered state diverged:\ngot  %s\nwant %s", a, b)
	}
	info := w2.Recovery()
	if info.ReplayedEvents != len(events) {
		t.Errorf("replayed = %d, want %d", info.ReplayedEvents, len(events))
	}
	if info.TruncatedBytes != 0 || info.DroppedSegments != 0 || info.CorruptSnapshots != 0 {
		t.Errorf("clean log reported repairs: %+v", info)
	}

	// The log keeps appending where it left off.
	if err := w2.Append(Event{Type: EventCampaignRegistered, Campaign: "d", Spec: testSpec("d")}); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if err := w2.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestWALCloseImpliesSync(t *testing.T) {
	dir := t.TempDir()
	// A huge flush interval: only Close's drain can make the tail durable.
	w, _, err := OpenWAL(WALConfig{Dir: dir, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, campaignLifecycle("c"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, got, err := OpenWAL(WALConfig{Dir: dir, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got.Campaigns["c"] == nil || !got.Campaigns["c"].Finished {
		t.Errorf("unsynced tail lost on close: %s", mustJSON(t, got))
	}
}

func TestWALClosedOperationsFail(t *testing.T) {
	w, _, err := OpenWAL(WALConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Event{Type: EventCampaignFinished, Campaign: "c"}); !errors.Is(err, ErrWALClosed) {
		t.Errorf("append after close = %v, want ErrWALClosed", err)
	}
	if err := w.Commit(); !errors.Is(err, ErrWALClosed) {
		t.Errorf("commit after close = %v, want ErrWALClosed", err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
}

func TestWALRejectsBadEventBeforeLogging(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Event{Type: EventRoundOpened, Campaign: "ghost", Round: 1}); !errors.Is(err, ErrBadEvent) {
		t.Fatalf("append of bad event = %v, want ErrBadEvent", err)
	}
	// The rejection must not have burned a sequence number or written bytes.
	appendAll(t, w, campaignLifecycle("c"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, got, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got.LastSeq != uint64(len(campaignLifecycle("c"))) {
		t.Errorf("last seq = %d, want %d", got.LastSeq, len(campaignLifecycle("c")))
	}
}

// tornTail appends garbage to the newest segment, simulating a crash mid-write.
func tornTail(t *testing.T, dir string, garbage []byte) string {
	t.Helper()
	segs, _, err := listLog(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments to tear (err=%v)", err)
	}
	path := filepath.Join(dir, segs[len(segs)-1].name)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return path
}

func TestWALTornTailTruncated(t *testing.T) {
	for _, tc := range []struct {
		name    string
		garbage []byte
	}{
		{"short header", []byte{0x01, 0x02, 0x03}},
		{"absurd length", []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 'x'}},
		{"short payload", []byte{0xff, 0x00, 0x00, 0x00, 1, 2, 3, 4, 'p', 'a', 'r', 't'}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, _, err := OpenWAL(WALConfig{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			events := campaignLifecycle("c")
			appendAll(t, w, events)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			path := tornTail(t, dir, tc.garbage)
			before := fileSize(path)

			w2, got, err := OpenWAL(WALConfig{Dir: dir})
			if err != nil {
				t.Fatalf("open with torn tail: %v", err)
			}
			defer w2.Close()
			info := w2.Recovery()
			if info.TruncatedBytes != int64(len(tc.garbage)) {
				t.Errorf("truncated = %d bytes, want %d", info.TruncatedBytes, len(tc.garbage))
			}
			if got.Campaigns["c"] == nil || !got.Campaigns["c"].Finished {
				t.Errorf("events before the tear lost: %s", mustJSON(t, got))
			}
			if after := fileSize(path); after != before-int64(len(tc.garbage)) {
				t.Errorf("segment = %d bytes after repair, want %d", after, before-int64(len(tc.garbage)))
			}
		})
	}
}

func TestWALBadCRCTruncatesAtRecord(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, []Event{
		{Type: EventCampaignRegistered, Campaign: "c", Spec: testSpec("c")},
		{Type: EventRoundOpened, Campaign: "c", Round: 1},
		{Type: EventBidAdmitted, Campaign: "c", Round: 1, Bid: testBid(1)},
	})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte of the LAST record: its CRC no longer matches.
	segs, _, err := listLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segs[len(segs)-1].name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var off, lastOff int64
	for {
		_, next, ok := readFrame(data, off)
		if !ok {
			break
		}
		lastOff, off = off, next
	}
	data[lastOff+recordHeaderLen] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, got, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatalf("open with bad CRC: %v", err)
	}
	defer w2.Close()
	if w2.Recovery().TruncatedBytes == 0 {
		t.Error("bad CRC record not truncated")
	}
	cur := got.Campaigns["c"].Current
	if cur == nil || cur.Round != 1 {
		t.Fatalf("rounds before the corrupt record lost: %s", mustJSON(t, got))
	}
	if len(cur.Bids) != 0 {
		t.Errorf("corrupt bid record survived: %d bids", len(cur.Bids))
	}
}

func TestWALMidLogTearDropsLaterSegments(t *testing.T) {
	// Hand-craft a log: segment 1 holds events 1-2 then a tear; segment 3
	// holds event 3. The tear makes segment 3 unreachable.
	dir := t.TempDir()
	ev1 := Event{Seq: 1, Type: EventCampaignRegistered, Campaign: "c", Spec: testSpec("c")}
	ev2 := Event{Seq: 2, Type: EventRoundOpened, Campaign: "c", Round: 1}
	ev3 := Event{Seq: 3, Type: EventBidAdmitted, Campaign: "c", Round: 1, Bid: testBid(1)}
	var seg1 []byte
	for _, ev := range []Event{ev1, ev2} {
		rec, err := appendRecord(nil, ev)
		if err != nil {
			t.Fatal(err)
		}
		seg1 = append(seg1, rec...)
	}
	seg1 = append(seg1, "torn"...)
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg1, 0o644); err != nil {
		t.Fatal(err)
	}
	rec3, err := appendRecord(nil, ev3)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(3)), rec3, 0o644); err != nil {
		t.Fatal(err)
	}

	w, got, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	info := w.Recovery()
	if info.DroppedSegments != 1 {
		t.Errorf("dropped segments = %d, want 1", info.DroppedSegments)
	}
	if info.TruncatedBytes != int64(len("torn"))+int64(len(rec3)) {
		t.Errorf("truncated bytes = %d, want %d", info.TruncatedBytes, len("torn")+len(rec3))
	}
	if got.LastSeq != 2 {
		t.Errorf("last seq = %d, want 2 (event 3 unreachable past the tear)", got.LastSeq)
	}
	if _, err := os.Stat(filepath.Join(dir, segmentName(3))); !os.IsNotExist(err) {
		t.Error("dropped segment still on disk")
	}
}

// syncEach opens a WAL whose every synced batch rotates (1-byte segment
// budget), appends each event with its own Sync, and closes it — leaving a
// log of one-event segments and the two newest snapshots.
func rotateEveryEvent(t *testing.T, dir string, events []Event) {
	t.Helper()
	w, _, err := OpenWAL(WALConfig{Dir: dir, SegmentBytes: 1, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := w.Append(ev); err != nil {
			t.Fatalf("append %s: %v", ev.Type, err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWALRotationSnapshotsAndCompacts(t *testing.T) {
	dir := t.TempDir()
	events := campaignLifecycle("c")
	rotateEveryEvent(t, dir, events)

	segs, snaps, err := listLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Errorf("snapshots on disk = %d, want 2 (newest + fallback)", len(snaps))
	}
	if len(snaps) == 2 && snaps[1] != uint64(len(events)) {
		t.Errorf("newest snapshot covers seq %d, want %d", snaps[1], len(events))
	}
	// Compaction must have deleted segments fully covered by the older
	// snapshot: with one event per segment, at most a couple survive.
	if len(segs) > 3 {
		t.Errorf("segments on disk = %d, want ≤ 3 after compaction", len(segs))
	}

	w, got, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	want := NewState()
	for i, ev := range events {
		ev.Seq = uint64(i + 1)
		if err := Apply(want, ev); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := mustJSON(t, got), mustJSON(t, want); a != b {
		t.Errorf("snapshot+replay state diverged:\ngot  %s\nwant %s", a, b)
	}
	if info := w.Recovery(); info.SnapshotSeq != uint64(len(events)) {
		t.Errorf("recovered from snapshot seq %d, want %d", info.SnapshotSeq, len(events))
	}
}

func TestWALCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	events := campaignLifecycle("c")
	rotateEveryEvent(t, dir, events)

	_, snaps, err := listLog(dir)
	if err != nil || len(snaps) < 2 {
		t.Fatalf("need ≥ 2 snapshots, have %d (err=%v)", len(snaps), err)
	}
	// Corrupt the newest snapshot's payload: CRC check must reject it.
	newest := filepath.Join(dir, snapshotName(snaps[len(snaps)-1]))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[recordHeaderLen] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w, got, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatalf("open with corrupt snapshot: %v", err)
	}
	defer w.Close()
	info := w.Recovery()
	if info.CorruptSnapshots != 1 {
		t.Errorf("corrupt snapshots = %d, want 1", info.CorruptSnapshots)
	}
	if info.SnapshotSeq != snaps[len(snaps)-2] {
		t.Errorf("fell back to snapshot seq %d, want %d", info.SnapshotSeq, snaps[len(snaps)-2])
	}
	// The fallback snapshot plus surviving segments must still reach the end.
	if got.Campaigns["c"] == nil || !got.Campaigns["c"].Finished {
		t.Errorf("fallback recovery incomplete: %s", mustJSON(t, got))
	}
}

func TestWALTruncatedSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	events := campaignLifecycle("c")
	rotateEveryEvent(t, dir, events)

	_, snaps, err := listLog(dir)
	if err != nil || len(snaps) < 2 {
		t.Fatalf("need ≥ 2 snapshots, have %d (err=%v)", len(snaps), err)
	}
	// Chop the newest snapshot mid-payload: a torn snapshot write.
	newest := filepath.Join(dir, snapshotName(snaps[len(snaps)-1]))
	if err := os.Truncate(newest, recordHeaderLen+3); err != nil {
		t.Fatal(err)
	}

	w, got, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatalf("open with truncated snapshot: %v", err)
	}
	defer w.Close()
	if info := w.Recovery(); info.CorruptSnapshots != 1 {
		t.Errorf("corrupt snapshots = %d, want 1", info.CorruptSnapshots)
	}
	if got.Campaigns["c"] == nil || !got.Campaigns["c"].Finished {
		t.Errorf("fallback recovery incomplete: %s", mustJSON(t, got))
	}
}

func TestWALConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const campaigns = 8
	var wg sync.WaitGroup
	for i := 0; i < campaigns; i++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for _, ev := range campaignLifecycle(id) {
				if err := w.Append(ev); err != nil {
					t.Errorf("append %s/%s: %v", id, ev.Type, err)
					return
				}
			}
			if err := w.Commit(); err != nil {
				t.Errorf("commit %s: %v", id, err)
			}
		}(fmt.Sprintf("c%d", i))
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, got, err := OpenWAL(WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	perCampaign := len(campaignLifecycle("x"))
	if got.LastSeq != uint64(campaigns*perCampaign) {
		t.Errorf("last seq = %d, want %d", got.LastSeq, campaigns*perCampaign)
	}
	for i := 0; i < campaigns; i++ {
		id := fmt.Sprintf("c%d", i)
		cs := got.Campaigns[id]
		if cs == nil || !cs.Finished || len(cs.Completed) != 2 {
			t.Errorf("campaign %s incomplete after concurrent append: %+v", id, cs)
		}
	}
}

func TestFrameRejectsOversizedRecord(t *testing.T) {
	if _, err := frame(make([]byte, maxRecordBytes+1)); !errors.Is(err, ErrRecordTooLarge) {
		t.Errorf("frame error = %v, want ErrRecordTooLarge", err)
	}
}

func TestListLogIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"README", "wal-junk.log", "snap-x.snap", "wal-0000000000000001.log.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	segs, snaps, err := listLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || !strings.Contains(segs[0].name, "0000000000000001") {
		t.Errorf("segments = %+v, want only the well-formed one", segs)
	}
	if len(snaps) != 0 {
		t.Errorf("snapshots = %v, want none", snaps)
	}
}
