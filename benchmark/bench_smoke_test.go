package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// tinySizes keeps every workload's shape and shrinks its data, so the whole
// benchmark runs in a few seconds.
var tinySizes = sizes{
	AcctRows: 1000, Members: 4, AggRowsPerMember: 250, ShipRowsPerMember: 250,
	ShipWindow: 100, CustRows: 50, FactRows: 1000, DimRows: 20,
	Builds: 1, Warmup: 50 * time.Millisecond, ReplayScale: 10,
}

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestSmoke builds every workload at tiny sizes, checks its answers, and
// requires the names and units it emits to be exactly those BENCHMARK.json
// lists: a name in one place and not the other fails.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has %+v, the benchmark emits %+v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json has %+v, the benchmark emits %+v", file.PerLayer, perLayer)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(file.Workloads), len(workloads))
	}
	out := t.TempDir()
	for i, wl := range workloads {
		if file.Workloads[i].Name != wl.name || file.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark has %s: %s", i, file.Workloads[i], wl.name, wl.why)
		}
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(runConfig{workload: wl.name, seed: 7, seconds: 0.3, trace: trace, outDir: out, sizes: tinySizes})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
				if _, err := os.Stat(out + "/trace-" + wl.name + ".json"); err != nil {
					t.Errorf("%s: no span file: %v", wl.name, err)
				}
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit || v.Unit == "" {
					t.Errorf("%s trace=%v: metric %s missing or without its unit %q: %+v", wl.name, trace, d.Name, d.Unit, v)
				}
			}
		}
	}
}
