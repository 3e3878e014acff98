package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the harness must honour.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestHarnessSmall runs every workload of BENCHMARK.json at a few rounds per
// episode, untraced and traced, and asserts that the checks pass and that
// every named metric is printed with its unit, and nothing else.
func TestHarnessSmall(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("--seconds defaults to %d, BENCHMARK.json's run_seconds is %d", runSeconds, spec.RunSeconds)
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			var out bytes.Buffer
			res, err := run(config{workload: w.Name, seed: 7, trace: traced, small: true}, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			for name, m := range res.Metrics {
				if unit, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: unnamed metric %s", w.Name, traced, name)
				} else if unit != m.Unit {
					t.Errorf("%s trace=%v: %s unit %q, BENCHMARK.json says %q", w.Name, traced, name, m.Unit, unit)
				}
			}
			for name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: metric %s not printed", w.Name, traced, name)
				}
			}
			if !strings.Contains(out.String(), "# digest ") {
				t.Errorf("%s trace=%v: no outcome digest printed", w.Name, traced)
			}
		}
	}
}

// TestDigestRepeats pins that one seed decides identically across runs.
func TestDigestRepeats(t *testing.T) {
	digestOf := func() string {
		var out bytes.Buffer
		if _, err := run(config{workload: "mt-greedy", seed: 3, small: true}, &out); err != nil {
			t.Fatal(err)
		}
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(l, "# digest ") {
				return l
			}
		}
		t.Fatal("no digest")
		return ""
	}
	if a, b := digestOf(), digestOf(); a != b {
		t.Fatalf("digest changed between runs of one seed: %s vs %s", a, b)
	}
}

// TestPredictionsCoverLayers pins that the prediction table names exactly
// the per-layer metrics of BENCHMARK.json.
func TestPredictionsCoverLayers(t *testing.T) {
	var spec benchmarkSpec
	var pred struct {
		Layers map[string]json.RawMessage `json:"layers"`
	}
	for path, v := range map[string]any{"../BENCHMARK.json": &spec, "PREDICTIONS.json": &pred} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	for _, m := range spec.PerLayer {
		if _, ok := pred.Layers[m.Name]; !ok {
			t.Errorf("PREDICTIONS.json has no entry for %s", m.Name)
		}
		delete(pred.Layers, m.Name)
	}
	for name := range pred.Layers {
		t.Errorf("PREDICTIONS.json names %s, which BENCHMARK.json does not", name)
	}
}
