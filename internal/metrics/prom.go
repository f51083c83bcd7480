// Prometheus exposition: a dependency-free labeled-metric registry
// rendering text format v0.0.4, the scrape surface behind GET /metrics.
// The package's raw primitives (Counter, Gauge, Histogram) serve the
// experiment harnesses; the registry organizes the same kinds of
// measurements into named, labeled families a standard scrape/alert
// stack can consume. Three family kinds are supported — counter, gauge,
// and bucketed histogram — each instantiated per label-value tuple:
//
//	reg := metrics.NewRegistry()
//	sheds := reg.CounterVec("tropic_admission_shed_total",
//	    "Submissions rejected by admission control.", "shard")
//	sheds.With("0").Inc()
//	reg.WriteText(w) // deterministic, scrape-ready
//
// Output ordering is deterministic (families by name, series by label
// values), so the encoding is golden-testable and diffs are stable.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefLatencyBuckets are the fixed histogram bounds (seconds) used by
// every pipeline latency family: 500µs to 10s in roughly 1-2.5-5 steps,
// covering simulated quorum rounds up through cross-shard 2PC under
// overload.
var DefLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// DefSizeBuckets are the fixed bounds for size-shaped families (event
// round items, group-commit ops): powers of two through 256, matching
// the BatchMaxOps ablation range.
var DefSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// famKind is a family's Prometheus metric type.
type famKind int

const (
	kindCounter famKind = iota
	kindGauge
	kindHistogram
)

func (k famKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one named metric family with a fixed label schema.
type family struct {
	name   string
	help   string
	kind   famKind
	labels []string
	bounds []float64 // histogram families only

	mu     sync.Mutex
	series map[string]*series
}

// series is one label-value instantiation of a family. Exactly one of
// the value fields is used, per the family kind; fn (gauges and
// counters only) overrides the stored value with a live read, which is
// how queue depths and lifted subsystem counters export without a
// sampling loop.
type series struct {
	values []string
	ctr    *Counter
	gauge  *Gauge
	hist   *BucketHistogram
	fn     func() float64
}

// seriesKey joins label values into a map key (0xff never appears in
// well-formed label values' UTF-8).
func seriesKey(values []string) string { return strings.Join(values, "\xff") }

// Registry holds metric families and renders them in Prometheus text
// format. The zero value is not usable; create with NewRegistry.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{fams: make(map[string]*family)} }

// lookup returns the named family, creating it on first use. Re-opening
// an existing family with a different kind or label schema is a
// programmer error and panics — the scrape surface must be internally
// consistent.
func (r *Registry) lookup(name, help string, kind famKind, bounds []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("metrics: family %q re-registered as %s%v (was %s%v)",
				name, kind, labels, f.kind, f.labels))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("metrics: family %q re-registered with labels %v (was %v)",
					name, labels, f.labels))
			}
		}
		return f
	}
	f := &family{
		name:   name,
		help:   help,
		kind:   kind,
		labels: append([]string(nil), labels...),
		bounds: bounds,
		series: make(map[string]*series),
	}
	r.fams[name] = f
	return f
}

// child returns the series for the given label values, creating it on
// first use. The value count must match the family's label schema.
func (f *family) child(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: family %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	key := seriesKey(values)
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{values: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		s.ctr = &Counter{}
	case kindGauge:
		s.gauge = &Gauge{}
	case kindHistogram:
		s.hist = newBucketHistogram(f.bounds)
	}
	f.series[key] = s
	return s
}

// --- Vec handles ------------------------------------------------------

// CounterVec is a family of monotonically increasing counters keyed by
// label values.
type CounterVec struct{ f *family }

// CounterVec opens (or creates) a counter family. Registering the same
// name again returns the same family, so shards and controller replicas
// can share one set of series.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.lookup(name, help, kindCounter, nil, labels)}
}

// With returns the counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter { return v.f.child(values).ctr }

// Func exports the given label values as a live read of fn instead of a
// stored counter — for lifting cumulative totals maintained elsewhere
// (WAL fsync counts, batcher flush totals) into the scrape surface.
func (v *CounterVec) Func(fn func() float64, values ...string) {
	s := v.f.child(values)
	v.f.mu.Lock()
	s.fn = fn
	v.f.mu.Unlock()
}

// GaugeVec is a family of last-value metrics keyed by label values.
type GaugeVec struct{ f *family }

// GaugeVec opens (or creates) a gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.lookup(name, help, kindGauge, nil, labels)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.child(values).gauge }

// Func exports the given label values as a live read of fn — the
// idiomatic shape for queue depths, which are sampled at scrape time
// rather than pushed.
func (v *GaugeVec) Func(fn func() float64, values ...string) {
	s := v.f.child(values)
	v.f.mu.Lock()
	s.fn = fn
	v.f.mu.Unlock()
}

// HistogramVec is a family of fixed-bucket histograms keyed by label
// values.
type HistogramVec struct{ f *family }

// HistogramVec opens (or creates) a histogram family with the given
// bucket upper bounds (ascending; +Inf is implicit). Nil bounds select
// DefLatencyBuckets.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	return &HistogramVec{f: r.lookup(name, help, kindHistogram, bounds, labels)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *BucketHistogram { return v.f.child(values).hist }

// BucketHistogram is a Prometheus-style cumulative-bucket histogram:
// atomic per-bucket counts plus an exact sum and count. Unlike the
// package's raw-sample Histogram it answers no quantile queries itself
// — rank estimation happens in the scrape stack — so its memory is
// fixed regardless of observation volume.
type BucketHistogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is +Inf overflow
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

func newBucketHistogram(bounds []float64) *BucketHistogram {
	return &BucketHistogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *BucketHistogram) Observe(v float64) {
	// Buckets are few (≤ ~16): linear scan beats binary search overhead.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *BucketHistogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *BucketHistogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *BucketHistogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// --- Text rendering ---------------------------------------------------

// The exposition format's escapes, built once: HELP text escapes
// backslash and newline, label values also the double quote.
var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
)

// escapeHelp escapes a HELP line per the exposition format.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	return helpEscaper.Replace(s)
}

// escapeLabel escapes a label value per the exposition format. Label
// values are shard indexes, stage and queue names: nearly all need no
// escape and are returned as they are.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	return labelEscaper.Replace(s)
}

// formatValue renders a sample value ('g' keeps integers undecorated).
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// labelPairs renders {name="value",...} for the given schema; extra
// appends one more pair (the histogram "le" label). Empty label sets
// render as no braces at all.
func labelPairs(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteString(`"`)
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// WriteText renders every family in Prometheus text format v0.0.4:
// families sorted by name, series sorted by label values, histogram
// series as cumulative _bucket/_sum/_count triples.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	var b strings.Builder
	for _, f := range fams {
		f.renderTo(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Text renders the registry to a string (tests and smoke checks).
func (r *Registry) Text() string {
	var b strings.Builder
	_ = r.WriteText(&b)
	return b.String()
}

func (f *family) renderTo(b *strings.Builder) {
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ordered := make([]*series, 0, len(keys))
	for _, k := range keys {
		ordered = append(ordered, f.series[k])
	}
	f.mu.Unlock()
	if len(ordered) == 0 {
		return
	}
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	for _, s := range ordered {
		switch f.kind {
		case kindCounter:
			v := float64(s.ctr.Load())
			if s.fn != nil {
				v = s.fn()
			}
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelPairs(f.labels, s.values, "", ""), formatValue(v))
		case kindGauge:
			v := float64(s.gauge.Load())
			if s.fn != nil {
				v = s.fn()
			}
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelPairs(f.labels, s.values, "", ""), formatValue(v))
		case kindHistogram:
			h := s.hist
			var cum int64
			for i, bound := range h.bounds {
				cum += h.counts[i].Load()
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
					labelPairs(f.labels, s.values, "le", formatValue(bound)), cum)
			}
			cum += h.counts[len(h.bounds)].Load()
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
				labelPairs(f.labels, s.values, "le", "+Inf"), cum)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name,
				labelPairs(f.labels, s.values, "", ""), formatValue(h.Sum()))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name,
				labelPairs(f.labels, s.values, "", ""), h.Count())
		}
	}
}
