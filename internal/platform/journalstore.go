package platform

import (
	"fmt"
	"io"
	"sync"

	"crowdsense/internal/store"
)

// JournalStore derives the round journal from the engine's event stream: it
// is a store.Store that folds every event through the shared reducer and
// writes one JournalEntry line per settled round. It is the only writer of
// platformd's -journal file, so the journal and the durable state are two
// views of one stream and cannot drift apart.
type JournalStore struct {
	mu    sync.Mutex
	w     io.Writer
	state *store.State
	err   error // sticky
}

// NewJournalStore writes journal lines to w. When resuming from a recovered
// state, pass it so the reducer accepts the engine's reopen events; the
// store keeps a private clone. Nil starts empty (a fresh engine).
func NewJournalStore(w io.Writer, recovered *store.State) (*JournalStore, error) {
	st := store.NewState()
	if recovered != nil {
		var err error
		if st, err = recovered.Clone(); err != nil {
			return nil, fmt.Errorf("platform: journal store: %w", err)
		}
	}
	return &JournalStore{w: w, state: st}, nil
}

// Append folds the event; a round_settled event emits its journal line.
func (j *JournalStore) Append(ev store.Event) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if err := store.Apply(j.state, ev); err != nil {
		j.err = err
		return err
	}
	if ev.Type != store.EventRoundSettled {
		return nil
	}
	cs := j.state.Campaigns[ev.Campaign]
	rec := cs.Completed[len(cs.Completed)-1] // Apply just archived it
	entry := EntryFromRecord(ev.Campaign, cs.Spec.Tasks, rec)
	if err := WriteJournal(j.w, entry); err != nil {
		j.err = err
		return err
	}
	return nil
}

// Commit is a no-op: lines are written as rounds settle. (Durability of the
// underlying file is its owner's concern.)
func (j *JournalStore) Commit() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close reports the sticky error; the writer's lifetime belongs to the
// caller.
func (j *JournalStore) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// JournalFromState renders every settled round in the state as journal
// entries, in campaign registration order then round order — byte-identical
// to what a JournalStore following the same event stream would have written.
// Cluster failover uses it to prove a promoted replica's journal matches the
// dead leader's.
func JournalFromState(st *store.State) []JournalEntry {
	if st == nil {
		return nil
	}
	var entries []JournalEntry
	for _, id := range st.Order {
		cs := st.Campaigns[id]
		if cs == nil {
			continue
		}
		for _, rec := range cs.Completed {
			entries = append(entries, EntryFromRecord(id, cs.Spec.Tasks, rec))
		}
	}
	return entries
}
