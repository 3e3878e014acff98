package spantool

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"crowdsense/internal/obs/span"
)

// fixtureRecords builds a two-campaign journal: each campaign span contains a
// round, the round a computing phase, and the phase two overlapping
// critical-bid probes (the concurrency case lane assignment must split).
func fixtureRecords() []span.Record {
	base := time.Date(2026, 8, 5, 10, 0, 0, 0, time.UTC)
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	var recs []span.Record
	id := uint64(0)
	next := func() uint64 { id++; return id }
	for ci, camp := range []string{"alpha", "beta"} {
		campID := next()
		roundID := next()
		phaseID := next()
		off := ms(ci * 100)
		recs = append(recs,
			span.Record{ID: campID, Name: span.NameCampaign, Campaign: camp,
				Start: base.Add(off), DurNanos: ms(90).Nanoseconds()},
			span.Record{ID: roundID, Parent: campID, Name: span.NameRound, Campaign: camp, Round: 1,
				Start: base.Add(off + ms(5)), DurNanos: ms(80).Nanoseconds(),
				Attrs: span.Attrs{span.Int("winners", 2), span.Int("bids", 10), span.Float("payment", 42.5)}},
			span.Record{ID: phaseID, Parent: roundID, Name: span.NamePhaseComputing, Campaign: camp, Round: 1,
				Start: base.Add(off + ms(10)), DurNanos: ms(60).Nanoseconds()},
			// Two probes overlapping in time: must land on distinct lanes.
			span.Record{ID: next(), Parent: phaseID, Name: span.NameCriticalBid, Campaign: camp, Round: 1,
				Start: base.Add(off + ms(15)), DurNanos: ms(40).Nanoseconds(),
				Attrs: span.Attrs{span.Int("probes", 33)}},
			span.Record{ID: next(), Parent: phaseID, Name: span.NameCriticalBid, Campaign: camp, Round: 1,
				Start: base.Add(off + ms(20)), DurNanos: ms(40).Nanoseconds(),
				Attrs: span.Attrs{span.Int("probes", 31)}},
		)
	}
	return recs
}

func TestConvertProducesValidNestedTrace(t *testing.T) {
	tf := Convert(fixtureRecords())
	var xEvents, mEvents int
	pids := map[int]bool{}
	for _, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "X":
			xEvents++
			pids[ev.Pid] = true
		case "M":
			mEvents++
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if xEvents != 10 {
		t.Errorf("%d X events, want 10", xEvents)
	}
	if len(pids) != 2 {
		t.Errorf("%d processes, want 2 (one per campaign)", len(pids))
	}
	if mEvents == 0 {
		t.Error("no metadata events")
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTrace(buf.Bytes()); err != nil {
		t.Fatalf("converted trace fails validation: %v", err)
	}
}

func TestConvertLaneAssignment(t *testing.T) {
	recs := fixtureRecords()
	tf := Convert(recs)
	// Index X events by span id.
	lanes := map[uint64]TraceEvent{}
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		id, ok := ev.Args["id"].(uint64)
		if !ok {
			t.Fatalf("event %s missing id arg (%T)", ev.Name, ev.Args["id"])
		}
		lanes[id] = ev
	}
	for _, r := range recs {
		ev := lanes[r.ID]
		parent, hasParent := lanes[r.Parent]
		switch r.Name {
		case span.NameCampaign:
			if ev.Tid != 0 {
				t.Errorf("%s campaign on lane %d, want 0", r.Campaign, ev.Tid)
			}
		case span.NameRound, span.NamePhaseComputing:
			if !hasParent || ev.Tid != parent.Tid {
				t.Errorf("%s should share its parent's lane (got %d)", r.Name, ev.Tid)
			}
		}
	}
	// The two overlapping probes of each campaign must be on different lanes.
	for _, camp := range []string{"alpha", "beta"} {
		var probeLanes []int
		for _, r := range recs {
			if r.Campaign == camp && r.Name == span.NameCriticalBid {
				probeLanes = append(probeLanes, lanes[r.ID].Tid)
			}
		}
		if len(probeLanes) != 2 || probeLanes[0] == probeLanes[1] {
			t.Errorf("%s overlapping probes on lanes %v, want distinct", camp, probeLanes)
		}
	}
}

func TestConvertEmpty(t *testing.T) {
	tf := Convert(nil)
	if tf.TraceEvents == nil || len(tf.TraceEvents) != 0 {
		t.Errorf("empty convert: %+v", tf.TraceEvents)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateTrace(buf.Bytes()); err != nil {
		t.Errorf("empty trace should validate: %v", err)
	}
}

func TestValidateTraceRejectsBrokenNesting(t *testing.T) {
	bad := `{"traceEvents":[
		{"name":"a","ph":"X","ts":0,"dur":100,"pid":0,"tid":0},
		{"name":"b","ph":"X","ts":50,"dur":100,"pid":0,"tid":0}
	],"displayTimeUnit":"ms"}`
	if err := ValidateTrace([]byte(bad)); err == nil {
		t.Error("overlapping non-nested events should fail validation")
	}
	if err := ValidateTrace([]byte(`{"displayTimeUnit":"ms"}`)); err == nil {
		t.Error("missing traceEvents should fail validation")
	}
	if err := ValidateTrace([]byte(`not json`)); err == nil {
		t.Error("garbage should fail validation")
	}
}

func TestSummarize(t *testing.T) {
	stats := Summarize(fixtureRecords())
	if len(stats) != 4 {
		t.Fatalf("%d name groups, want 4", len(stats))
	}
	// campaign: 2×90ms total dominates.
	if stats[0].Name != span.NameCampaign || stats[0].Count != 2 {
		t.Errorf("top stat %+v, want campaign ×2", stats[0])
	}
	if stats[0].Total != 180*time.Millisecond {
		t.Errorf("campaign total %v, want 180ms", stats[0].Total)
	}
	for _, st := range stats {
		if st.Name == span.NameCriticalBid {
			if st.Count != 4 || st.Mean() != 40*time.Millisecond {
				t.Errorf("critical_bid stat %+v", st)
			}
		}
	}
}

func TestSlowestRounds(t *testing.T) {
	recs := fixtureRecords()
	// Make beta's round slower so the ranking is non-trivial.
	for i := range recs {
		if recs[i].Name == span.NameRound && recs[i].Campaign == "beta" {
			recs[i].DurNanos = (200 * time.Millisecond).Nanoseconds()
		}
	}
	rounds := SlowestRounds(recs, 1)
	if len(rounds) != 1 || rounds[0].Campaign != "beta" {
		t.Fatalf("top round %+v, want beta", rounds)
	}
	if rounds[0].Winners != 2 || rounds[0].Bids != 10 || rounds[0].Payment != 42.5 {
		t.Errorf("round attrs %+v", rounds[0])
	}
	if got := SlowestRounds(recs, 0); len(got) != 2 {
		t.Errorf("k=0 returned %d rounds, want all 2", len(got))
	}
}

func TestFilter(t *testing.T) {
	recs := fixtureRecords()
	if got := Filter(recs, "alpha", "", 0); len(got) != 5 {
		t.Errorf("campaign filter: %d, want 5", len(got))
	}
	if got := Filter(recs, "", span.NameCriticalBid, 0); len(got) != 4 {
		t.Errorf("name filter: %d, want 4", len(got))
	}
	if got := Filter(recs, "beta", span.NameRound, 1); len(got) != 1 {
		t.Errorf("combined filter: %d, want 1", len(got))
	}
	if got := Filter(recs, "nope", "", 0); len(got) != 0 {
		t.Errorf("no-match filter: %d, want 0", len(got))
	}
}

func TestWriteSummary(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSummary(&buf, fixtureRecords(), 3); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"10 spans", span.NameCampaign, span.NameCriticalBid, "slowest rounds", "alpha", "beta"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "cluster events") {
		t.Errorf("cluster section should be absent without replication/failover spans:\n%s", out)
	}
}

// clusterRecords appends a replication session and a failover promotion —
// the spans a cluster node journals — to the engine fixture.
func clusterRecords() []span.Record {
	base := time.Date(2026, 8, 5, 10, 1, 0, 0, time.UTC)
	return append(fixtureRecords(),
		span.Record{ID: 100, Name: span.NameReplication, Start: base,
			DurNanos: (2 * time.Second).Nanoseconds(),
			Attrs: span.Attrs{span.Str("shard", "s1"), span.Str("follower", "n2"),
				span.Int("from_seq", 0), span.Int("events_sent", 14), span.Int("final_lag", 0)}},
		span.Record{ID: 101, Name: span.NameFailover, Start: base.Add(2 * time.Second),
			DurNanos: (4 * time.Millisecond).Nanoseconds(),
			Attrs: span.Attrs{span.Str("shard", "s1"), span.Str("node", "n2"),
				span.Int("replica_seq", 14)}},
	)
}

func TestClusterEvents(t *testing.T) {
	events := ClusterEvents(clusterRecords())
	if len(events) != 2 {
		t.Fatalf("ClusterEvents = %d entries, want 2", len(events))
	}
	rep, fo := events[0], events[1]
	if rep.Name != span.NameReplication || rep.Shard != "s1" || rep.Peer != "n2" {
		t.Errorf("replication event = %+v", rep)
	}
	if !strings.Contains(rep.Detail, "events_sent=14") || !strings.Contains(rep.Detail, "final_lag=0") {
		t.Errorf("replication detail = %q", rep.Detail)
	}
	if fo.Name != span.NameFailover || fo.Peer != "n2" || fo.Dur != 4*time.Millisecond {
		t.Errorf("failover event = %+v", fo)
	}
	if !strings.Contains(fo.Detail, "replica_seq=14") {
		t.Errorf("failover detail = %q", fo.Detail)
	}
}

func TestWriteSummaryClusterSection(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSummary(&buf, clusterRecords(), 3); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"cluster events", span.NameReplication, span.NameFailover, "replica_seq=14", "events_sent=14"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestParseSLOTargets(t *testing.T) {
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	for _, tc := range []struct {
		in   string
		want map[string]time.Duration
	}{
		{"", map[string]time.Duration{}},
		{" , ,", map[string]time.Duration{}},
		{"250ms", map[string]time.Duration{span.NameRound: ms(250)}},
		{"round=250ms,phase.computing=50ms", map[string]time.Duration{
			span.NameRound: ms(250), span.NamePhaseComputing: ms(50)}},
		{" phase.computing=1ns , 2s ", map[string]time.Duration{
			span.NamePhaseComputing: time.Nanosecond, span.NameRound: 2 * time.Second}},
		{"round=1s,round=2s", map[string]time.Duration{span.NameRound: 2 * time.Second}},
	} {
		got, err := ParseSLOTargets(tc.in)
		if err != nil {
			t.Errorf("ParseSLOTargets(%q): %v", tc.in, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("ParseSLOTargets(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for name, d := range tc.want {
			if got[name] != d {
				t.Errorf("ParseSLOTargets(%q)[%s] = %v, want %v", tc.in, name, got[name], d)
			}
		}
	}
	for _, in := range []string{
		"=250ms",        // no span name
		"round=",        // no duration
		"round=fast",    // not a duration
		"250",           // bare number without a unit
		"round=1s,oops", // one bad entry rejects the list
	} {
		if got, err := ParseSLOTargets(in); err == nil {
			t.Errorf("ParseSLOTargets(%q) = %v, want an error", in, got)
		}
	}
}
