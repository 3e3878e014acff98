// Command benchfig regenerates every table and figure of the paper's
// evaluation section and prints the series. With -csv it additionally
// writes one CSV file per artifact.
//
// Examples:
//
//	benchfig                      # quick environment, all artifacts
//	benchfig -scale full          # paper-scale environment (slow)
//	benchfig -only fig5a,fig7     # selected artifacts
//	benchfig -csv out/            # also write CSVs
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"crowdsense/internal/experiments"
	"crowdsense/internal/obs/span"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "benchfig:", err)
		os.Exit(1)
	}
}

// run regenerates the selected artifacts: each one's rendered series goes to
// stdout, progress and diagnostics to stderr. Split out of main for testing.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchfig", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale   = fs.String("scale", "quick", "environment scale: quick or full")
		only    = fs.String("only", "", "comma-separated artifact IDs to run (default all)")
		csvDir  = fs.String("csv", "", "directory to write per-artifact CSV files")
		seed    = fs.Int64("seed", 1, "random seed")
		reps    = fs.Int("reps", 0, "averaging repetitions per sweep point (0 = scale default)")
		spanOut = fs.String("span-journal", "", "record one root span per artifact to this JSONL file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var tracer *span.Tracer
	if *spanOut != "" {
		sj, err := span.OpenJournal(span.JournalConfig{Path: *spanOut})
		if err != nil {
			return err
		}
		defer func() {
			if err := sj.Close(); err != nil {
				fmt.Fprintln(stderr, "benchfig: span journal close:", err)
			}
		}()
		tracer = span.New(sj)
	}

	var cfg experiments.Config
	switch *scale {
	case "quick":
		cfg = experiments.TestConfig()
	case "full":
		cfg = experiments.DefaultConfig()
	default:
		return fmt.Errorf("unknown scale %q (want quick or full)", *scale)
	}
	cfg.Seed = *seed
	if *reps > 0 {
		cfg.Repetitions = *reps
	}

	fmt.Fprintf(stderr, "building environment (%s scale, seed %d)...\n", *scale, *seed)
	env, err := experiments.NewEnv(cfg)
	if err != nil {
		return err
	}

	harnesses := []struct {
		id  string
		run func() (*experiments.Result, error)
	}{
		{"table2", env.RunTable2},
		{"table3", env.RunTable3},
		{"fig3", env.RunFig3},
		{"fig4", env.RunFig4},
		{"fig5a", env.RunFig5a},
		{"fig5b", env.RunFig5b},
		{"fig5c", env.RunFig5c},
		{"fig6", env.RunFig6},
		{"fig7", env.RunFig7},
		{"fig8", env.RunFig8},
		{"fig9", env.RunFig9},
		{"sp", env.RunStrategyproofness},
		{"ablation-eps", env.RunAblationEpsilon},
		{"ablation-horizon", env.RunAblationHorizon},
		{"ablation-critical", env.RunAblationCriticalBid},
		{"ablation-smoothing", env.RunAblationSmoothing},
		{"ext-payment", env.RunPaymentOverhead},
		{"ext-verify", env.RunCostVerification},
		{"ablation-order2", env.RunAblationOrder2},
		{"ext-robust", env.RunRobustness},
		{"ext-strategic", env.RunStrategicRegret},
		{"ext-reputation", env.RunReputation},
	}

	wanted := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			wanted[strings.TrimSpace(id)] = true
		}
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}

	ran := 0
	for _, h := range harnesses {
		if len(wanted) > 0 && !wanted[h.id] {
			continue
		}
		fmt.Fprintf(stderr, "running %s...\n", h.id)
		sp := tracer.Start("bench.artifact", span.Str("artifact", h.id))
		result, err := h.run()
		if err != nil {
			sp.EndWith(span.Str("error", err.Error()))
			return fmt.Errorf("%s: %w", h.id, err)
		}
		sp.End()
		fmt.Fprintln(stdout, result.Render())
		if *csvDir != "" {
			path := filepath.Join(*csvDir, result.ID+".csv")
			if err := os.WriteFile(path, []byte(result.CSV()), 0o644); err != nil {
				return fmt.Errorf("write %s: %w", path, err)
			}
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no artifacts matched -only=%q", *only)
	}
	return nil
}
