package store

import (
	"bytes"
	"testing"
)

// FuzzWALDecode feeds arbitrary bytes to the segment decoder: it must never
// panic, never allocate from a corrupt length header, and any events it does
// return must lie inside the valid prefix it reports.
func FuzzWALDecode(f *testing.F) {
	// A well-formed segment: three records of a campaign lifecycle.
	var seg []byte
	seed := []Event{
		{Seq: 1, Type: EventCampaignRegistered, Campaign: "c", Spec: testSpec("c")},
		{Seq: 2, Type: EventRoundOpened, Campaign: "c", Round: 1},
		{Seq: 3, Type: EventBidAdmitted, Campaign: "c", Round: 1, Bid: testBid(1)},
	}
	for _, ev := range seed {
		rec, err := appendRecord(nil, ev)
		if err != nil {
			f.Fatal(err)
		}
		seg = append(seg, rec...)
	}
	f.Add(seg)                                        // clean segment
	f.Add(seg[:len(seg)-3])                           // torn tail
	f.Add(append(bytes.Clone(seg), 0xde, 0xad))       // trailing garbage
	f.Add([]byte{})                                   // empty
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // absurd length header
	f.Add([]byte{4, 0, 0, 0, 1, 2, 3, 4, 'a', 'b'})   // short payload + bad CRC
	corrupted := bytes.Clone(seg)
	corrupted[recordHeaderLen] ^= 0xff // CRC mismatch in record 1
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, data []byte) {
		events, validLen, err := decodeSegment(data)
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("validLen %d outside [0, %d]", validLen, len(data))
		}
		if err != nil {
			return // reported corruption is fine; panics are not
		}
		// The valid prefix must re-decode to the same events.
		again, againLen, err := decodeSegment(data[:validLen])
		if err != nil || againLen != validLen || len(again) != len(events) {
			t.Fatalf("valid prefix unstable: len %d→%d, events %d→%d, err %v",
				validLen, againLen, len(events), len(again), err)
		}
	})
}
