// Command obsctl analyzes span journals recorded by platformd's
// -span-journal flag (or any span.Journal sink): tail the raw records,
// summarize per-phase latency and the slowest rounds, or convert a journal
// to Chrome trace-event JSON for Perfetto / chrome://tracing.
//
// Examples:
//
//	obsctl tail -n 20 spans.jsonl                 # last 20 records
//	obsctl tail -name wd.critical_bid spans.jsonl # filter by span name
//	obsctl summary -top 5 spans.jsonl             # latency breakdown + slowest rounds
//	obsctl slo -targets round=250ms spans.jsonl   # p99 targets, burn rates, audit events
//	obsctl convert spans.jsonl > trace.json       # open in ui.perfetto.dev
//	obsctl stitch a.jsonl b.jsonl > trace.json    # merge node journals, one lane group per node
//	obsctl validate trace.json                    # check trace-event invariants
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"crowdsense/internal/buildinfo"
	"crowdsense/internal/obs/span"
	"crowdsense/internal/obs/spantool"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "obsctl:", err)
		os.Exit(1)
	}
}

const usage = `usage: obsctl <command> [flags] <journal.jsonl>...

Commands:
  tail      print the most recent span records
  summary   per-name latency breakdown, cluster events, slowest rounds
  slo       per-name latency quantiles vs p99 targets, audit events
  convert   emit Chrome trace-event JSON (Perfetto / chrome://tracing)
  stitch    merge several nodes' journals into one cross-node trace timeline
  validate  check a converted trace file's invariants
  version   print version and exit
`

// run dispatches one obsctl invocation; out receives the command's payload
// (stderr stays reserved for diagnostics). Split out of main for testing.
func run(args []string, out *os.File) error {
	if len(args) == 0 {
		return fmt.Errorf("missing command\n%s", usage)
	}
	switch cmd, rest := args[0], args[1:]; cmd {
	case "tail":
		return runTail(rest, out)
	case "summary":
		return runSummary(rest, out)
	case "slo":
		return runSLO(rest, out)
	case "convert":
		return runConvert(rest, out)
	case "stitch":
		return runStitch(rest, out)
	case "validate":
		return runValidate(rest, out)
	case "version", "-version", "--version":
		fmt.Fprintln(out, "obsctl "+buildinfo.String())
		return nil
	case "-h", "-help", "--help", "help":
		fmt.Fprint(out, usage)
		return nil
	default:
		return fmt.Errorf("unknown command %q\n%s", cmd, usage)
	}
}

// load reads and concatenates every journal file given; rotated segments can
// be passed oldest-first to reassemble one stream.
func load(paths []string) ([]span.Record, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("no journal files given")
	}
	var all []span.Record
	for _, path := range paths {
		recs, err := span.ReadJournalFile(path)
		if err != nil {
			return nil, err
		}
		all = append(all, recs...)
	}
	return all, nil
}

func runTail(args []string, out *os.File) error {
	fs := flag.NewFlagSet("obsctl tail", flag.ContinueOnError)
	n := fs.Int("n", 10, "records to print (0 = all)")
	campaign := fs.String("campaign", "", "only records from this campaign")
	name := fs.String("name", "", "only records with this span name")
	round := fs.Int("round", 0, "only records from this round (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	recs, err := load(fs.Args())
	if err != nil {
		return err
	}
	recs = spantool.Filter(recs, *campaign, *name, *round)
	if *n > 0 && len(recs) > *n {
		recs = recs[len(recs)-*n:]
	}
	for _, r := range recs {
		fmt.Fprintln(out, formatRecord(r))
	}
	return nil
}

// formatRecord renders one journal record as a single aligned text line.
func formatRecord(r span.Record) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %-16s %10s", r.Start.Format("15:04:05.000"), r.Name,
		time.Duration(r.DurNanos).Round(time.Microsecond))
	if r.Campaign != "" {
		fmt.Fprintf(&b, " campaign=%s", r.Campaign)
	}
	if r.Round > 0 {
		fmt.Fprintf(&b, " round=%d", r.Round)
	}
	for _, a := range r.Attrs {
		fmt.Fprintf(&b, " %s=%v", a.Key, a.Value())
	}
	return b.String()
}

func runSummary(args []string, out *os.File) error {
	fs := flag.NewFlagSet("obsctl summary", flag.ContinueOnError)
	top := fs.Int("top", 5, "slowest rounds to list")
	campaign := fs.String("campaign", "", "only records from this campaign")
	if err := fs.Parse(args); err != nil {
		return err
	}
	recs, err := load(fs.Args())
	if err != nil {
		return err
	}
	recs = spantool.Filter(recs, *campaign, "", 0)
	return spantool.WriteSummary(out, recs, *top)
}

// runSLO evaluates latency SLOs offline over a journal: per-name quantiles
// against p99 targets, plus the audit.violation / slo.breach events the live
// auditor recorded. With no -targets it still reports quantiles, so the
// command doubles as a latency profile.
func runSLO(args []string, out *os.File) error {
	fs := flag.NewFlagSet("obsctl slo", flag.ContinueOnError)
	targetsArg := fs.String("targets", "round=250ms,phase.computing=50ms",
		"comma-separated span=duration p99 targets; a bare duration targets the round span (empty = quantiles only)")
	objective := fs.Float64("objective", 0.01, "allowed slow-event fraction (0.01 = a p99 target)")
	campaign := fs.String("campaign", "", "only records from this campaign")
	if err := fs.Parse(args); err != nil {
		return err
	}
	targets, err := spantool.ParseSLOTargets(*targetsArg)
	if err != nil {
		return err
	}
	recs, err := load(fs.Args())
	if err != nil {
		return err
	}
	recs = spantool.Filter(recs, *campaign, "", 0)
	return spantool.WriteSLO(out, recs, targets, *objective)
}

func runConvert(args []string, out *os.File) error {
	fs := flag.NewFlagSet("obsctl convert", flag.ContinueOnError)
	outPath := fs.String("o", "", "write the trace here instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	recs, err := load(fs.Args())
	if err != nil {
		return err
	}
	w := out
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return spantool.WriteTrace(w, spantool.Convert(recs))
}

// runStitch merges N node journals into one Perfetto timeline: one lane
// group per node, clocks aligned from trace-context send/receive pairs, flow
// arrows across node boundaries. Each file is loaded separately so rotated
// segments of one node regroup by the node name stamped in the records.
func runStitch(args []string, out *os.File) error {
	fs := flag.NewFlagSet("obsctl stitch", flag.ContinueOnError)
	outPath := fs.String("o", "", "write the trace here instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no journal files given")
	}
	inputs := make([][]span.Record, 0, fs.NArg())
	for _, path := range fs.Args() {
		recs, err := span.ReadJournalFile(path)
		if err != nil {
			return err
		}
		inputs = append(inputs, recs)
	}
	w := out
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return spantool.WriteTrace(w, spantool.Stitch(inputs))
}

func runValidate(args []string, out *os.File) error {
	fs := flag.NewFlagSet("obsctl validate", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no trace files given")
	}
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := spantool.ValidateTrace(data); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Fprintf(out, "%s: ok\n", path)
	}
	return nil
}
