package mechanism

import (
	"errors"
	"strings"
	"testing"

	"crowdsense/internal/knapsack"
	"crowdsense/internal/obs/span"
)

// TestBisect pins the one critical-bid search both mechanisms price
// through: it lands within tol above a monotone predicate's step, an error
// from the predicate ends the search at once, and SingleTask's confirmation
// probe refuses a winner that loses at her declared contribution.
func TestBisect(t *testing.T) {
	errProbe := errors.New("probe failed")
	step := func(at float64, calls *int) func(float64) (bool, error) {
		return func(x float64) (bool, error) {
			*calls++
			return x >= at, nil
		}
	}
	in, err := knapsack.NewInstance([]float64{1, 2}, []float64{0.5, 0.7}, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		search    func(calls *int) (float64, error)
		step, tol float64 // success cases: want step ≤ result ≤ step+tol
		wantCalls int     // 0: not checked
		wantErr   string
	}{
		{
			name: "interior step",
			search: func(calls *int) (float64, error) {
				return bisect(0, 1, 1e-9, step(0.3, calls))
			},
			step: 0.3, tol: 1e-9,
		},
		{
			name: "step at the winning end",
			search: func(calls *int) (float64, error) {
				return bisect(0, 0.7, CriticalBidTol, step(0.7, calls))
			},
			step: 0.7, tol: CriticalBidTol,
		},
		{
			name: "bracket already within tol",
			search: func(calls *int) (float64, error) {
				return bisect(0.5, 0.5+1e-10, 1e-9, step(0.5, calls))
			},
			step: 0.5 + 1e-10, tol: 0,
		},
		{
			name: "predicate error aborts",
			search: func(calls *int) (float64, error) {
				return bisect(0, 1, 1e-9, func(float64) (bool, error) {
					*calls++
					return false, errProbe
				})
			},
			wantCalls: 1,
			wantErr:   errProbe.Error(),
		},
		{
			name: "single-task winner loses at declared contribution",
			search: func(calls *int) (float64, error) {
				// Picks user 1 on every probe, so user 0 never wins.
				other := func(*span.Span, int, float64) (knapsack.Solution, error) {
					*calls++
					return knapsack.Solution{Selected: []int{1}, Cost: 2}, nil
				}
				q, _, err := criticalContribution(nil, other, in, 0)
				return q, err
			},
			wantCalls: 1,
			wantErr:   "winner 0 does not win at declared contribution",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0
			got, err := tc.search(&calls)
			if tc.wantCalls != 0 && calls != tc.wantCalls {
				t.Errorf("%d predicate calls, want %d", calls, tc.wantCalls)
			}
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got < tc.step || got > tc.step+tc.tol {
				t.Errorf("bisect = %.17g, want in [%g, %g]", got, tc.step, tc.step+tc.tol)
			}
		})
	}
}
