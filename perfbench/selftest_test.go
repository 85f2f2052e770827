package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestSelf makes a one-second pass of every workload, plain and traced,
// against a freshly built fsmserve, and checks that each emits exactly
// the metrics BENCHMARK.json names, with their units, and no failures.
func TestSelf(t *testing.T) {
	if testing.Short() {
		t.Skip("builds fsmserve and runs every workload")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "fsmserve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/fsmserve")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building fsmserve: %v\n%s", err, out)
	}
	for _, w := range spec.Workloads {
		for traced, want := range map[bool][]named{false: spec.EndToEnd, true: spec.PerLayer} {
			res, err := run(bin, w.Name, 1, time.Second, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct %v, %d of %d failed", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.Name, traced, m.Name, got, m.Unit)
				}
			}
			if !traced && res.Metrics["ok_ratio"].Value != 1 {
				t.Errorf("%s: ok_ratio %v, want 1 (error rate 0)", w.Name, res.Metrics["ok_ratio"].Value)
			}
		}
	}
}
