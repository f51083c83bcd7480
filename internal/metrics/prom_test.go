package metrics

import (
	"strings"
	"testing"
	"time"
)

// TestPromTextCounterGauge pins the exposition basics: HELP/TYPE
// preamble, label rendering, Func overrides, and integer formatting.
func TestPromTextCounterGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.CounterVec("tropic_test_total", "A test counter.", "shard", "stage")
	c.With("0", "committed").Inc()
	c.With("0", "committed").Inc()
	c.With("1", "aborted").Inc()
	g := reg.GaugeVec("tropic_test_depth", "A test gauge.", "queue")
	g.Func(func() float64 { return 7 }, "inputq")

	text := reg.Text()
	for _, want := range []string{
		"# HELP tropic_test_total A test counter.\n",
		"# TYPE tropic_test_total counter\n",
		`tropic_test_total{shard="0",stage="committed"} 2` + "\n",
		`tropic_test_total{shard="1",stage="aborted"} 1` + "\n",
		"# TYPE tropic_test_depth gauge\n",
		`tropic_test_depth{queue="inputq"} 7` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestPromLabelEscaping pins the v0.0.4 escaping rules: backslash,
// double quote, and newline in label values; backslash and newline in
// HELP text.
func TestPromLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	c := reg.CounterVec("esc_total", "line one\nline\\two", "path")
	c.With(`C:\dir "x"` + "\n").Inc()

	text := reg.Text()
	if want := `# HELP esc_total line one\nline\\two` + "\n"; !strings.Contains(text, want) {
		t.Errorf("HELP escaping: missing %q in:\n%s", want, text)
	}
	if want := `esc_total{path="C:\\dir \"x\"\n"} 1` + "\n"; !strings.Contains(text, want) {
		t.Errorf("label escaping: missing %q in:\n%s", want, text)
	}
}

// TestPromHistogramInvariants pins the histogram triple: _bucket series
// are cumulative and monotone, the +Inf bucket equals _count, and _sum
// is the exact sum of observations.
func TestPromHistogramInvariants(t *testing.T) {
	reg := NewRegistry()
	h := reg.HistogramVec("lat_seconds", "Latency.", []float64{0.01, 0.1, 1}, "shard")
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.With("0").Observe(v)
	}
	// Boundary rule: le is inclusive (v ≤ bound lands in the bucket).
	h.With("0").Observe(0.1)

	text := reg.Text()
	for _, want := range []string{
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{shard="0",le="0.01"} 1` + "\n",
		`lat_seconds_bucket{shard="0",le="0.1"} 4` + "\n",
		`lat_seconds_bucket{shard="0",le="1"} 5` + "\n",
		`lat_seconds_bucket{shard="0",le="+Inf"} 6` + "\n",
		`lat_seconds_count{shard="0"} 6` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("histogram exposition missing %q:\n%s", want, text)
		}
	}
	if got, want := h.With("0").Sum(), 0.005+0.05+0.05+0.5+5+0.1; got != want {
		t.Errorf("Sum() = %v, want %v", got, want)
	}
	if got := h.With("0").Count(); got != 6 {
		t.Errorf("Count() = %d, want 6", got)
	}
	h.With("0").ObserveDuration(50 * time.Millisecond)
	if got := h.With("0").Count(); got != 7 {
		t.Errorf("Count() after ObserveDuration = %d, want 7", got)
	}
}

// TestPromDeterministicOrdering pins the golden-testability contract:
// families render sorted by name, series by label values, and repeated
// renders are byte-identical.
func TestPromDeterministicOrdering(t *testing.T) {
	reg := NewRegistry()
	// Register out of order, touch series out of order.
	reg.CounterVec("zzz_total", "Last.", "s").With("1").Inc()
	reg.CounterVec("aaa_total", "First.", "s").With("9").Inc()
	reg.CounterVec("aaa_total", "First.", "s").With("0").Inc()

	text := reg.Text()
	iA := strings.Index(text, "# HELP aaa_total")
	iZ := strings.Index(text, "# HELP zzz_total")
	if iA < 0 || iZ < 0 || iA > iZ {
		t.Errorf("families not sorted by name:\n%s", text)
	}
	if i0, i9 := strings.Index(text, `aaa_total{s="0"}`), strings.Index(text, `aaa_total{s="9"}`); i0 < 0 || i9 < 0 || i0 > i9 {
		t.Errorf("series not sorted by label values:\n%s", text)
	}
	for i := 0; i < 3; i++ {
		if again := reg.Text(); again != text {
			t.Fatalf("render %d not deterministic:\n--- first ---\n%s--- again ---\n%s", i, text, again)
		}
	}
}

// TestPromGetOrCreateShares pins the failover-continuity contract:
// re-opening a family with an identical schema returns the SAME series,
// so controller replicas of one shard continue each other's counters.
func TestPromGetOrCreateShares(t *testing.T) {
	reg := NewRegistry()
	a := reg.CounterVec("shared_total", "Shared.", "shard")
	b := reg.CounterVec("shared_total", "Shared.", "shard")
	a.With("0").Inc()
	b.With("0").Inc()
	if got := a.With("0").Load(); got != 2 {
		t.Errorf("shared series = %d increments, want 2", got)
	}
}

// TestPromSchemaMismatchPanics pins the consistency guard: re-opening a
// family under a different kind or label schema is a programmer error.
func TestPromSchemaMismatchPanics(t *testing.T) {
	for name, reopen := range map[string]func(r *Registry){
		"kind":        func(r *Registry) { r.GaugeVec("m_total", "M.", "shard") },
		"label count": func(r *Registry) { r.CounterVec("m_total", "M.", "shard", "stage") },
		"label names": func(r *Registry) { r.CounterVec("m_total", "M.", "queue") },
	} {
		t.Run(name, func(t *testing.T) {
			reg := NewRegistry()
			reg.CounterVec("m_total", "M.", "shard")
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch did not panic", name)
				}
			}()
			reopen(reg)
		})
	}
}

// TestPromEmptyFamiliesOmitted: a family with no series contributes no
// output (no HELP/TYPE orphans in the scrape).
func TestPromEmptyFamiliesOmitted(t *testing.T) {
	reg := NewRegistry()
	reg.CounterVec("unused_total", "Never touched.", "shard")
	if text := reg.Text(); text != "" {
		t.Errorf("empty registry rendered %q, want empty", text)
	}
}

// TestHistogramReservoirBounded pins the satellite contract for the
// raw-sample Histogram: exact count/sum/extremes past the cap, bounded
// retention, and quantile estimates within the documented rank error.
func TestHistogramReservoirBounded(t *testing.T) {
	const cap, n = 1024, 100000
	h := NewHistogramCap(cap)
	for i := 1; i <= n; i++ {
		h.Observe(float64(i))
	}
	if got := h.Count(); got != n {
		t.Errorf("Count() = %d, want exact %d past the cap", got, n)
	}
	if got, want := h.Mean(), float64(n+1)/2; got != want {
		t.Errorf("Mean() = %v, want exact %v", got, want)
	}
	if h.Min() != 1 || h.Max() != n {
		t.Errorf("extremes = [%v, %v], want exact [1, %d]", h.Min(), h.Max(), n)
	}
	// Rank error is O(1/√cap) ≈ 0.03 at cap 1024; a ±0.1 rank window is
	// >6σ, far beyond flake territory.
	if p50 := h.Quantile(0.5); p50 < 0.4*n || p50 > 0.6*n {
		t.Errorf("reservoir p50 = %v, want within [%v, %v]", p50, 0.4*n, 0.6*n)
	}
	if p99 := h.Quantile(0.99); p99 < 0.89*n {
		t.Errorf("reservoir p99 = %v, want ≥ %v", p99, 0.89*n)
	}
}

// TestHistogramExactBelowCap: below the cap the histogram is the exact
// structure the CI-scale experiments rely on.
func TestHistogramExactBelowCap(t *testing.T) {
	h := NewHistogramCap(16)
	for _, v := range []float64{5, 1, 3, 2, 4} {
		h.Observe(v)
	}
	if got := h.Quantile(0.5); got != 3 {
		t.Errorf("exact p50 = %v, want 3", got)
	}
	if got := h.Quantile(0.99); got != 5 {
		t.Errorf("exact p99 = %v, want 5", got)
	}
}

// TestEscapeLabelAllocs: escaping renders as before, and a label that
// needs no escape (every label the platform emits) is returned without
// allocating; the per-call replacer used to allocate on every call.
func TestEscapeLabelAllocs(t *testing.T) {
	for in, want := range map[string]string{
		"0":         "0",
		"inputq":    "inputq",
		`a\b`:       `a\\b`,
		`say "hi"`:  `say \"hi\"`,
		"two\nline": `two\nline`,
	} {
		if got := escapeLabel(in); got != want {
			t.Errorf("escapeLabel(%q) = %q, want %q", in, got, want)
		}
	}
	if got, want := escapeHelp("a\\b\nc \"q\""), `a\\b\nc "q"`; got != want {
		t.Errorf("escapeHelp = %q, want %q", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { _ = escapeLabel("inputq") }); n != 0 {
		t.Fatalf("escapeLabel of a plain label: %v allocs, want 0", n)
	}
}
