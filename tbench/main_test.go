package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
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

// tinySizes shrinks a workload to a few dozen operations.
func tinySizes() sizes {
	return sizes{
		reps:       2,
		hosts:      32,
		window:     4,
		skew:       8,
		warmup:     20,
		timed:      80,
		lists:      4,
		seeded:     100,
		cacheBytes: 64 << 10,
	}
}

// TestEveryMetricReported runs each workload of BENCHMARK.json at a tiny
// size, untraced and traced, and fails if an operation fails or a named
// metric is missing or carries another unit than the file declares.
func TestEveryMetricReported(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) == 0 || len(bf.EndToEnd) == 0 || len(bf.PerLayer) == 0 {
		t.Fatal("BENCHMARK.json names no workloads or metrics")
	}
	if len(bf.PerLayer) != len(perLayerUnits) {
		t.Errorf("BENCHMARK.json names %d per-layer metrics, the benchmark reports %d",
			len(bf.PerLayer), len(perLayerUnits))
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s: not implemented", w.Name)
			continue
		}
		for _, trace := range []bool{false, true} {
			o := options{workload: w.Name, seed: 7, seconds: 1, trace: trace, workdir: t.TempDir()}
			res, err := run(o, tinySizes())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d",
					w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit == "" || got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}
