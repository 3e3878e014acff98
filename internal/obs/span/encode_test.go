package span

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestAppendRecordMatchesMarshal pins the hand-rolled journal encoder to
// encoding/json's reflective output for the Record struct tags: both byte
// streams must decode to the same record.
func TestAppendRecordMatchesMarshal(t *testing.T) {
	start := time.Date(2026, 8, 5, 12, 30, 45, 123456789, time.UTC)
	records := []Record{
		{ID: 1, Name: "campaign", Start: start, DurNanos: 5},
		{ID: 2, Parent: 1, Name: "round", Campaign: "c1", Round: 3, Start: start, DurNanos: 1e9,
			Attrs: Attrs{Int("bids", 7), Float("social_cost", 12.5), Str("mechanism", "single-task")}},
		{ID: 3, Name: "wd", Start: start.Add(time.Millisecond), DurNanos: 0,
			Attrs: Attrs{Str("error", `quote " backslash \ control `+"\n"+` unicode é`)}},
		{ID: 4, Name: "dup", Start: start,
			Attrs: Attrs{Int("k", 1), Str("other", "x"), Int("k", 9)}},
		{ID: 5, Name: "big", Start: start,
			Attrs: Attrs{Float("tiny", 1e-300), Float("huge", 1e300), Int("neg", -42)}},
	}
	for _, rec := range records {
		hand := appendRecord(nil, &rec)
		var fromHand Record
		if err := json.Unmarshal(hand, &fromHand); err != nil {
			t.Fatalf("record %d: hand encoding is invalid JSON: %v\n%s", rec.ID, err, hand)
		}
		// tagged has Record's fields and tags but not its MarshalJSON, so
		// encoding/json walks the struct tags itself.
		type tagged Record
		std, err := json.Marshal((*tagged)(&rec))
		if err != nil {
			t.Fatal(err)
		}
		var fromStd Record
		if err := json.Unmarshal(std, &fromStd); err != nil {
			t.Fatal(err)
		}
		if a, b := toJSON(t, fromHand), toJSON(t, fromStd); a != b {
			t.Errorf("record %d decodes differently:\nhand: %s\nstd:  %s", rec.ID, a, b)
		}
	}
}

func toJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestAppendRecordNonFinite checks NaN/Inf attrs degrade to null instead of
// producing an unparseable line (encoding/json would refuse the record).
func TestAppendRecordNonFinite(t *testing.T) {
	rec := Record{ID: 1, Name: "x", Start: time.Now(),
		Attrs: Attrs{Float("nan", math.NaN()), Float("inf", math.Inf(1))}}
	line := appendRecord(nil, &rec)
	var got Record
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatalf("non-finite floats produced invalid JSON: %v\n%s", err, line)
	}
}

// TestRecordJSONMatchesJournal pins the one span JSON encoder: json.Marshal
// of a Record (what /debug/spans serves) and the journal's line for it are
// the same bytes — non-finite floats as null on both, where a map-based
// encoder would abort the whole /debug/spans array — and both decode to
// the same record.
func TestRecordJSONMatchesJournal(t *testing.T) {
	rec := Record{ID: 7, Parent: 3, TraceID: 11, Node: "n1", Name: "wd", Campaign: "c<1>&", Round: 2,
		Start: time.Date(2026, 8, 5, 12, 30, 45, 123456789, time.UTC), DurNanos: 1500,
		Attrs: Attrs{Int("k", 1), Float("cost", 12.5), Float("nan", math.NaN()),
			Str("mechanism", "multi-task <greedy> & \u2028"), Int("k", 9)}}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	j, err := OpenJournal(JournalConfig{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	j.Emit(&rec)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	line, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	std, err := json.Marshal(rec)
	if err != nil {
		t.Fatalf("json.Marshal(Record): %v", err)
	}
	if want := bytes.TrimSuffix(line, []byte("\n")); !bytes.Equal(std, want) {
		t.Errorf("json.Marshal and the journal disagree:\nmarshal: %s\njournal: %s", std, want)
	}
	var served bytes.Buffer
	if err := json.NewEncoder(&served).Encode([]Record{rec}); err != nil {
		t.Fatalf("encoding a /debug/spans array: %v", err)
	}
	if want := "[" + string(std) + "]\n"; served.String() != want {
		t.Errorf("/debug/spans array = %s, want %s", served.String(), want)
	}

	fromJournal, err := ReadJournal(bytes.NewReader(line))
	if err != nil || len(fromJournal) != 1 {
		t.Fatalf("ReadJournal = %v, %v; want one record", fromJournal, err)
	}
	var fromMarshal Record
	if err := json.Unmarshal(std, &fromMarshal); err != nil {
		t.Fatal(err)
	}
	// Decoding keeps the last write of a duplicate key, drops the null a
	// non-finite float became, and sorts attributes by key.
	want := rec
	want.Attrs = Attrs{Float("cost", 12.5), Int("k", 9), Str("mechanism", "multi-task <greedy> & \u2028")}
	for _, got := range []Record{fromJournal[0], fromMarshal} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("decoded record = %+v, want %+v", got, want)
		}
	}
}
