package agent

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"crowdsense/internal/obs/span"
	"crowdsense/internal/stats"
	"crowdsense/internal/wire"
)

// ErrDial marks a failure to reach the platform at all (refused, unreachable,
// timed out before the connection opened). These failures are retried by
// RunWithBackoff; protocol and application errors are not.
var ErrDial = errors.New("dial failed")

// ErrLostSession marks a session whose connection died after registration
// but before an award arrived — the signature of a platform crash or
// redeploy mid-round. A recovered platform reopens the round with an empty
// bid set, so RunWithBackoff retries these like dial failures. (If the
// platform never went down, the retry's bid is rejected as a duplicate —
// a peer-spoken verdict, not retried.)
var ErrLostSession = errors.New("session lost before award")

// ErrShardMoved marks a cluster-router rejection saying the campaign's
// shard has no live member right now — the window between a shard leader
// dying and its follower finishing promotion. RunWithBackoff retries these
// with a reset delay, mirroring the lost-session path: the router answered,
// so the platform is mid-failover, not gone.
var ErrShardMoved = errors.New("shard moved, retry after failover")

// shardMoved classifies a peer rejection carrying the shard-moved protocol
// message (see wire.ShardMovedMessage).
func shardMoved(err error) bool {
	return errors.Is(err, wire.ErrPeer) && strings.Contains(err.Error(), wire.ShardMovedMessage)
}

// errClass buckets a session error into the coarse classes the redial spans
// record: dial, shard_moved, lost_session, peer (a rejection the platform
// articulated), or other.
func errClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrDial):
		return "dial"
	case errors.Is(err, ErrShardMoved):
		return "shard_moved"
	case errors.Is(err, ErrLostSession):
		return "lost_session"
	case errors.Is(err, wire.ErrPeer):
		return "peer"
	default:
		return "other"
	}
}

// lostSession classifies a pre-award failure: an error the peer articulated
// (rejection, protocol violation) stands as-is; anything else is the
// connection dying under us.
func lostSession(err error) error {
	if errors.Is(err, wire.ErrPeer) || errors.Is(err, wire.ErrBadEnvelope) ||
		errors.Is(err, wire.ErrMessageTooLarge) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrLostSession, err)
}

// Backoff is a bounded exponential backoff with jitter for connecting to a
// platform that is not up yet (or is between rounds). The zero value uses
// the defaults noted on each field.
type Backoff struct {
	Attempts int           // total dial attempts, including the first (default 5)
	Base     time.Duration // delay before the first retry (default 100 ms)
	Max      time.Duration // delay cap (default 5 s)
}

func (b Backoff) attempts() int {
	if b.Attempts <= 0 {
		return 5
	}
	return b.Attempts
}

func (b Backoff) base() time.Duration {
	if b.Base <= 0 {
		return 100 * time.Millisecond
	}
	return b.Base
}

func (b Backoff) max() time.Duration {
	if b.Max <= 0 {
		return 5 * time.Second
	}
	return b.Max
}

// delay returns the pause before retry n (0-based): the capped exponential
// Base·2ⁿ, jittered uniformly into its upper half so a fleet of agents
// started together does not reconnect in lockstep.
func (b Backoff) delay(n int, rng *rand.Rand) time.Duration {
	d := b.base() << uint(n)
	if limit := b.max(); d <= 0 || d > limit { // <= 0: shift overflow
		d = limit
	}
	return d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
}

// RunWithBackoff executes one auction round like Run, but retries dial
// failures, lost sessions and shard moves under the backoff policy instead of
// dying on the first refused connection — agents started before the
// platform, between rounds, or across a platform crash-and-recover converge.
// Any non-retryable error, and the last retryable error once attempts are
// exhausted, is returned unchanged.
func RunWithBackoff(ctx context.Context, cfg Config, b Backoff) (Result, error) {
	return retry(ctx, b, cfg.endpoint(), func(attempt int) (Result, bool, error) {
		res, err := Run(ctx, cfg)
		res.Redials = attempt
		return res, res.Registered, err
	})
}

// retry is the one retry loop behind RunWithBackoff and RunBatchWithBackoff.
// It calls run with the 0-based attempt number until run succeeds, fails
// with an error the peer articulated, or attempts run out; dial failures,
// lost sessions and shard moves are retried with bounded exponential backoff.
// The delay resets after any attempt that got as far as registering (run
// reports it): the platform was demonstrably up, so the next retry starts
// from Base again rather than resuming at max backoff. Cancellation and
// exhaustion return the zero result.
func retry[R any](ctx context.Context, b Backoff, ep endpoint, run func(attempt int) (R, bool, error)) (R, error) {
	var zero R
	var rng *rand.Rand // jitter source, seeded at the first backoff: most calls never retry
	var lastErr error
	streak := 0 // consecutive failures since the platform last answered
	for attempt := 0; attempt < b.attempts(); attempt++ {
		if attempt > 0 {
			if rng == nil {
				rng = stats.NewRand(ep.seed ^ int64(ep.user))
			}
			d := b.delay(streak-1, rng)
			// The redial span covers the backoff wait, carrying why the
			// previous attempt failed and how long the retry was delayed.
			redial := ep.spans.Start(span.NameAgentRedial,
				span.Int("user", int64(ep.user)),
				span.Int("attempt", int64(attempt)),
				span.Str("error", errClass(lastErr)),
				span.Int("delay_ns", int64(d)))
			redial.Tag(ep.campaign, 0)
			timer := time.NewTimer(d)
			select {
			case <-ctx.Done():
				timer.Stop()
				redial.End()
				return zero, ctx.Err()
			case <-timer.C:
			}
			redial.End()
		}
		res, registered, err := run(attempt)
		retryable := errors.Is(err, ErrDial) || errors.Is(err, ErrLostSession) || errors.Is(err, ErrShardMoved)
		if err == nil || !retryable || ctx.Err() != nil {
			return res, err
		}
		// A shard-moved rejection resets the delay like a registration did:
		// the router demonstrably answered, the shard is mid-failover, and
		// the fresh session will re-register from scratch.
		if registered || errors.Is(err, ErrShardMoved) {
			streak = 1
		} else {
			streak++
		}
		lastErr = err
	}
	return zero, fmt.Errorf("%s: %d attempts exhausted: %w", ep.who, b.attempts(), lastErr)
}
