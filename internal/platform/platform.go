// Package platform holds the crowdsensing platform's durable records: the
// round journal (one JSON line per settled round, with every bid, EC
// contract and settlement of the paper's Fig. 1 steps 2–6), the offline
// auditor that checks each line against the mechanism's invariants
// (CheckRound, Audit), the JournalStore that derives the journal from the
// engine's event stream, and Recover, which replays a state directory's WAL
// for a restarting node.
//
// The auction itself is served by internal/engine: platformd registers its
// campaigns there (one named "default" unless -campaigns asks for more) and
// writes the journal through a JournalStore on the engine's event stream.
package platform

import (
	"crowdsense/internal/auction"
	"crowdsense/internal/mechanism"
	"crowdsense/internal/wire"
)

// RoundResult is one completed auction round, as NewJournalEntry records
// it. A round whose bidders could not jointly meet the task requirements
// has a nil Outcome and a non-nil Err.
type RoundResult struct {
	Outcome     *mechanism.Outcome
	Bids        []auction.Bid
	Settlements map[auction.UserID]wire.Settle
	Err         error
}
