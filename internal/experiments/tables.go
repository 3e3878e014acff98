package experiments

import (
	"fmt"

	"crowdsense/internal/mechanism"
	"crowdsense/internal/workload"
)

// RunTable2 reproduces Table II: it prints the default simulation
// parameters and, as a sanity row, measures one default single-task auction
// (100 users) run under exactly those parameters.
func (e *Env) RunTable2() (*Result, error) {
	params := workload.DefaultSingleTaskParams()
	rng := e.rng(2)

	socialCost, err := meanOf(e.Config.Repetitions, func(int) (float64, error) {
		a, err := e.Population.SampleSingleTask(rng, params, 100)
		if err != nil {
			return 0, err
		}
		out, err := (&mechanism.SingleTask{Epsilon: 0.5, Alpha: mechanism.DefaultAlpha}).Run(a)
		if err != nil {
			return 0, err
		}
		return out.SocialCost, nil
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: table2: %w", err)
	}

	x := []float64{1}
	return &Result{
		ID:     "table2",
		Title:  "Default simulation parameters (Table II) + measured default run",
		XLabel: "defaults",
		YLabel: "value",
		Series: []Series{
			{Label: "PoS requirement T", X: x, Y: []float64{params.Requirement}},
			{Label: "reward scaling alpha", X: x, Y: []float64{mechanism.DefaultAlpha}},
			{Label: "task-set size min", X: x, Y: []float64{float64(params.TaskSetMin)}},
			{Label: "task-set size max", X: x, Y: []float64{float64(params.TaskSetMax)}},
			{Label: "cost mean", X: x, Y: []float64{params.CostMean}},
			{Label: "cost variance", X: x, Y: []float64{params.CostVar}},
			{Label: "campaign horizon (ext.)", X: x, Y: []float64{float64(params.Horizon)}},
			{Label: "measured social cost (single task, n=100)", X: x, Y: []float64{socialCost}},
		},
	}, nil
}

// RunTable3 reproduces Table III: the two multi-task sweep settings, each
// measured at its midpoint configuration.
func (e *Env) RunTable3() (*Result, error) {
	params := workload.DefaultParams()
	rng := e.rng(3)

	type setting struct {
		n, t    int
		horizon int
	}
	settings := []setting{
		{n: 50, t: 15, horizon: params.Horizon},         // setting 1 midpoint: users 10..100, 15 tasks
		{n: 30, t: 30, horizon: multiTaskHorizonLargeT}, // setting 2 midpoint: 30 users, tasks 10..50
	}
	xs := make([]float64, len(settings))
	users := make([]float64, len(settings))
	tasks := make([]float64, len(settings))
	costs := make([]float64, len(settings))
	for i, s := range settings {
		xs[i] = float64(i + 1)
		users[i] = float64(s.n)
		tasks[i] = float64(s.t)
		p := params
		p.Horizon = s.horizon
		v, err := meanOf(e.Config.Repetitions, func(int) (float64, error) {
			a, err := e.Population.SampleMultiTask(rng, p, s.n, s.t)
			if err != nil {
				return 0, err
			}
			out, err := (&mechanism.MultiTask{Alpha: mechanism.DefaultAlpha}).Run(a)
			if err != nil {
				return 0, err
			}
			return out.SocialCost, nil
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: table3 setting %d: %w", i+1, err)
		}
		costs[i] = v
	}
	return &Result{
		ID:     "table3",
		Title:  "Multi-task sweep settings (Table III) + measured midpoints",
		XLabel: "setting",
		YLabel: "value",
		Series: []Series{
			{Label: "users (midpoint)", X: xs, Y: users},
			{Label: "tasks (midpoint)", X: xs, Y: tasks},
			{Label: "mean cost", X: xs, Y: []float64{params.CostMean, params.CostMean}},
			{Label: "PoS requirement", X: xs, Y: []float64{params.Requirement, params.Requirement}},
			{Label: "measured greedy social cost", X: xs, Y: costs},
		},
	}, nil
}
