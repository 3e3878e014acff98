// The race detector's sync.Pool drops items at random, so json.Marshal's
// allocation count is noise under -race; this guard runs without it.

//go:build !race

package store

import "testing"

// TestWALAppendBufferReused holds steady-state group commit to the cost of
// its records: with the flushed buffer handed back as the next append
// buffer, each further Append in a committed batch allocates no more than
// encoding and folding its event into an already-sized buffer does.
// Comparing a batch of 16 with a batch of 1 cancels what Sync itself
// allocates (race instrumentation adds some).
func TestWALAppendBufferReused(t *testing.T) {
	w, _, err := OpenWAL(WALConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	register := Event{Seq: 1, Type: EventCampaignRegistered, Campaign: "c", Spec: testSpec("c")}
	// Reopening the in-flight round is a fixed-size record with a fixed fold.
	reopen := Event{Seq: 2, Type: EventRoundOpened, Campaign: "c", Round: 1}
	appendAll(t, w, []Event{register, reopen})
	commit := func(batch int) func() {
		return func() {
			for i := 0; i < batch; i++ {
				if err := w.Append(reopen); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	commit(16)() // size both buffers

	state := NewState()
	if err := Apply(state, register); err != nil {
		t.Fatal(err)
	}
	sized := make([]byte, 0, 4096)
	perEvent := testing.AllocsPerRun(50, func() {
		if _, err := appendRecord(sized, reopen); err != nil {
			t.Fatal(err)
		}
		if err := Apply(state, reopen); err != nil {
			t.Fatal(err)
		}
	})
	one := testing.AllocsPerRun(50, commit(1))
	sixteen := testing.AllocsPerRun(50, commit(16))
	if budget := one + 15*perEvent; sixteen > budget {
		t.Errorf("16 Appends + Sync allocate %.1f times, want ≤ %.1f: 1 Append + Sync (%.1f) plus 15 × %.1f per encoded and folded event",
			sixteen, budget, one, perEvent)
	}
}
