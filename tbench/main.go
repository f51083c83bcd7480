// Command tbench is the repository's end-to-end benchmark. It drives
// the public tropic API in-process (and, for readmix, the internal/api
// gateway over loopback) under one of three closed-loop workloads,
// checks every output, and prints one JSON result line:
//
//	tbench -workload spawn -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with
// -trace 1 the same workload runs with spans recorded around every call
// into a layer and the result carries the per-layer metrics instead
// (the traced end-to-end metrics are printed on the line before it).
// README.md in this directory documents the workloads, their sizes, and
// the metric → layer → workload map. tbench is normally started through
// run.py, which builds it inside the checkout first.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	profile  string // directory for CPU and heap profiles; "" disables
	workdir  string // scratch space for data directories and traces
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: spawn, spanning or readmix")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed phase at the reference rate (sizes the fixed work)")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	flag.StringVar(&o.profile, "profile", "", "write cpu-<workload>.pprof and heap-<workload>.pprof of the last repetition's timed phase into this directory")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for the run's data directories and span files")
	flag.Parse()
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	w, ok := workloads[o.workload]
	if !ok {
		fatalf("unknown -workload %q (want spawn, spanning or readmix)", o.workload)
	}
	if o.seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	res, err := run(o, w.sizes(o.seconds))
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tbench: "+format+"\n", args...)
	os.Exit(2)
}

// run executes one workload end to end: sizes.reps repetitions, each a
// fresh set-up followed by its own timed phase, then the metric
// assembly. Every metric is the median over the repetitions, so a burst
// of machine noise during one of them does not move the result. It is
// the entry point the self-test calls with tiny sizes.
func run(o options, sz sizes) (*result, error) {
	w := workloads[o.workload]
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// Every run is bounded well inside the 180 s a run may take, so a
	// stalled transaction fails the run instead of hanging it.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	res := &result{}
	var reps []*phase
	for i := 0; i < sz.reps; i++ {
		env := &runEnv{opts: o, sizes: sz, dir: filepath.Join(dir, fmt.Sprintf("rep%d", i)), tr: tr}
		if i < sz.reps-1 {
			env.opts.profile = "" // profile the last repetition only
		}
		ph, err := w.run(ctx, env)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", i, err)
		}
		runtime.GC()
		reps = append(reps, ph)
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		fmt.Printf("%s seed=%d rep=%d ops=%d txns=%d reads=%d lists=%d elapsed_s=%.3f wal_appends=%s snapshots=%d cache=%dB/%d stale_child_reads=%d setup_s=%.3f\n",
			o.workload, o.seed, i, ph.ops, ph.txns, len(ph.readLat), len(ph.listLat), ph.elapsed.Seconds(),
			appendRanges(ph), ph.snapshots,
			ph.after.reads.CacheBytes, ph.after.reads.CachedRecords, ph.staleReads, ph.setup)
	}
	res.Correct = res.Failed == 0
	e2e := medianMetrics(reps, (*phase).endToEnd)
	if !o.trace {
		res.Metrics = e2e
		return res, nil
	}
	line, err := json.Marshal(e2e)
	if err != nil {
		return nil, err
	}
	fmt.Printf("traced end-to-end: %s\n", line)
	res.Metrics = medianMetrics(reps, func(ph *phase) map[string]metric { return perLayer(ph, tr) })
	path := filepath.Join(o.workdir, "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := tr.writeFile(path); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	return res, nil
}

// appendRanges formats each shard's WAL-append counter at the start and
// end of the timed phase, in units of the snapshot interval: the figures
// the snapshot-count sizing rule in README.md keeps off whole numbers.
func appendRanges(ph *phase) string {
	out := ""
	for i := range ph.before.appends {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("%.2f..%.2f", float64(ph.before.appends[i])/snapshotEvery, float64(ph.after.appends[i])/snapshotEvery)
	}
	return out
}

// medianMetrics takes every metric's median over the repetitions.
func medianMetrics(reps []*phase, metrics func(*phase) map[string]metric) map[string]metric {
	vals := map[string][]float64{}
	units := map[string]string{}
	for _, ph := range reps {
		for name, m := range metrics(ph) {
			vals[name] = append(vals[name], m.Value)
			units[name] = m.Unit
		}
	}
	out := make(map[string]metric, len(vals))
	for name, v := range vals {
		out[name] = metric{median(v), units[name]}
	}
	return out
}

// phaseClock brackets the timed phase: wall time, process CPU, bytes
// allocated, and (with -profile) the CPU profile.
type phaseClock struct {
	start       time.Time
	cpu         time.Duration
	alloc       uint64
	profile     string
	profileFile *os.File
	name        string
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// startClock begins the timed phase. A collection first leaves set-up
// garbage out of the phase's GC work.
func startClock(env *runEnv) (*phaseClock, error) {
	runtime.GC()
	c := &phaseClock{profile: env.opts.profile, name: env.opts.workload}
	if c.profile != "" {
		if err := os.MkdirAll(c.profile, 0o755); err != nil {
			return nil, err
		}
		f, err := os.Create(filepath.Join(c.profile, "cpu-"+c.name+".pprof"))
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		c.profileFile = f
	}
	c.alloc = totalAlloc()
	c.cpu = processCPU()
	c.start = time.Now()
	return c, nil
}

// stopClock ends the timed phase and fills the phase's totals.
func (c *phaseClock) stopClock(ph *phase) error {
	ph.elapsed = time.Since(c.start)
	ph.cpu = processCPU() - c.cpu
	ph.alloc = totalAlloc() - c.alloc
	if c.profile == "" {
		return nil
	}
	pprof.StopCPUProfile()
	if err := c.profileFile.Close(); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(c.profile, "heap-"+c.name+".pprof"))
	if err != nil {
		return err
	}
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// finite maps the undefined results of empty ratios to 0, which JSON
// can carry.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
