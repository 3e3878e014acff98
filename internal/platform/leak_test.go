package platform

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"crowdsense/internal/agent"
	"crowdsense/internal/auction"
	"crowdsense/internal/engine"
)

// crowdsenseGoroutines counts live goroutines parked in this module's code —
// a hand-rolled goleak: any session, worker, or timer goroutine that
// outlives Serve shows up here by package path.
func crowdsenseGoroutines() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	count := 0
	for _, stack := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(stack, "crowdsense/internal") &&
			!strings.Contains(stack, "crowdsense/internal/platform.crowdsenseGoroutines") {
			count++
		}
	}
	return count
}

// assertNoLeakedGoroutines retries for a grace period (conn teardown is
// asynchronous) before declaring a leak.
func assertNoLeakedGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var got int
	for {
		got = crowdsenseGoroutines()
		if got <= baseline {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Errorf("%d crowdsense goroutines alive after shutdown (baseline %d):\n%s",
		got, baseline, buf[:n])
}

// TestServeCancelledWithArmedBidWindowDoesNotLeak cancels a round while its
// bid-window timer is armed and a session is mid-flight: Serve must return
// with no leaked session goroutines and the timer stopped.
func TestServeCancelledWithArmedBidWindowDoesNotLeak(t *testing.T) {
	baseline := crowdsenseGoroutines()

	cfg := singleTaskConfig(5) // never reached: the round stays collecting
	cfg.Tasks[0].Requirement = 0.5
	cfg.BidWindow = time.Hour // armed but far away; must be stopped on cancel
	ctx, cancel := context.WithCancel(context.Background())
	p := startPlatform(t, ctx, cfg, engine.Config{})
	addr := p.addr

	// One agent bids (arming the window timer) and then hangs waiting for
	// an award that will never come.
	agentDone := make(chan struct{})
	go func() {
		defer close(agentDone)
		bid := auction.NewBid(1, []auction.TaskID{1}, 2, map[auction.TaskID]float64{1: 0.8})
		_, _ = agent.Run(context.Background(), agent.Config{
			Addr: addr, User: 1, TrueBid: bid, Seed: 1, Timeout: 5 * time.Second,
		})
	}()
	time.Sleep(300 * time.Millisecond) // let the bid land

	cancel()
	select {
	case err := <-p.done:
		if err == nil {
			t.Error("cancelled Serve should return an error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after cancellation")
	}
	<-agentDone
	assertNoLeakedGoroutines(t, baseline)
}

// TestServeCompletedRoundDoesNotLeak runs a full round to settlement and
// checks nothing outlives Serve.
func TestServeCompletedRoundDoesNotLeak(t *testing.T) {
	baseline := crowdsenseGoroutines()

	cfg := singleTaskConfig(2)
	cfg.Tasks[0].Requirement = 0.5
	cfg.BidWindow = time.Hour // exercised: stopped when the auction starts
	p := startPlatform(t, context.Background(), cfg, engine.Config{})
	addr := p.addr

	for id := auction.UserID(1); id <= 2; id++ {
		go func(id auction.UserID) {
			bid := auction.NewBid(id, []auction.TaskID{1}, float64(id)+1,
				map[auction.TaskID]float64{1: 0.8})
			_, _ = agent.Run(context.Background(), agent.Config{
				Addr: addr, User: id, TrueBid: bid, Seed: int64(id),
				Timeout: 10 * time.Second,
			})
		}(id)
	}
	p.wait(t)
	assertNoLeakedGoroutines(t, baseline)
}
