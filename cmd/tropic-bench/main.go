// Command tropic-bench regenerates the tables and figures of the TROPIC
// paper's evaluation (§6) and prints them in the same form the paper
// reports: per-second series for Figures 3 and 4, a latency CDF for
// Figure 5, the Table 1 execution log, and scalar results for the
// safety (§6.2), robustness (§6.3), availability (§6.4), throughput and
// memory (§6.1) experiments.
//
// Usage:
//
//	tropic-bench -exp all                 # CI-scale pass over everything
//	tropic-bench -exp fig45 -full         # paper-scale: 12,500 hosts, full hour
//	tropic-bench -exp fig45 -hosts 1000 -window 2700:3060 -compression 20
//
// Absolute numbers differ from the paper (simulated store and devices,
// different hardware); the reproduced quantity is the *shape*: linear
// CPU scaling with load until saturation, sub-second median latency at
// low multipliers, rollback/constraint overheads far under their
// bounds, and failover dominated by the failure-detection interval.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/exp"
)

func main() {
	var (
		expName      = flag.String("exp", "all", "experiment: table1|fig3|fig4|fig5|fig45|safety|robustness|ha|throughput|mem|ablation|pipeline|shards|xshard|soak|reads|all")
		full         = flag.Bool("full", false, "paper-scale run (12,500 hosts, full 1-hour trace; takes many minutes)")
		hosts        = flag.Int("hosts", 400, "compute hosts (logical-only experiments)")
		mults        = flag.String("mult", "1,2,3,4,5", "comma-separated EC2 load multipliers")
		window       = flag.String("window", "2700:3000", "trace window seconds from:to")
		compression  = flag.Float64("compression", 10, "trace time compression factor")
		commitLat    = flag.Duration("commit-latency", 50*time.Microsecond, "simulated store quorum latency")
		seed         = flag.Int64("seed", 2011, "workload seed")
		timeout      = flag.Duration("timeout", 30*time.Minute, "overall deadline")
		pipeTxns     = flag.Int("pipeline-txns", 256, "transactions per pipeline ablation point")
		pipeBatches  = flag.String("pipeline-batches", "1,8,32", "comma-separated pipeline batch sizes")
		jsonOut      = flag.String("json", "", "write pipeline/shards results as JSON to this file (e.g. BENCH_pipeline.json)")
		shardTxns    = flag.Int("shards-txns", 256, "transactions per sharded-throughput point")
		shardCounts  = flag.String("shard-counts", "1,2,4,8", "comma-separated shard counts for -exp shards")
		xshardTxns   = flag.Int("xshard-txns", 160, "transactions per workload per cross-shard point")
		xshardCounts = flag.String("xshard-counts", "1,2,4", "comma-separated shard counts for -exp xshard")
		xshardReps   = flag.Int("xshard-reps", 1, "measurements per workload per cross-shard point (best kept)")
		soakTxns     = flag.Int("soak-txns", 512, "accepted transactions per soak run")
		soakClients  = flag.Int("soak-clients", 64, "concurrent submitters for -exp soak")
		soakInflight = flag.Int("soak-max-inflight", 8, "admission watermark under soak test")
		soakP99      = flag.Float64("soak-p99-ms", 5000, "soak latency gate: max p99 submit latency (ms)")
		readsOps     = flag.Int("reads-ops", 4096, "timed operations per read-mix configuration")
		readsRecords = flag.Int("reads-records", 64, "seeded records the read mix targets")
	)
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	run := func(name string, fn func(context.Context) error) {
		fmt.Printf("\n==================== %s ====================\n", name)
		start := time.Now()
		if err := fn(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}

	p45 := exp.Fig45Params{
		Multipliers:   parseMults(*mults),
		Hosts:         *hosts,
		CommitLatency: *commitLat,
		Compression:   *compression,
		Seed:          *seed,
	}
	p45.WindowFrom, p45.WindowTo = parseWindow(*window)
	if *full {
		p45.Hosts = 12500
		p45.WindowFrom, p45.WindowTo = 0, 3600
		p45.Compression = 1
	}

	all := *expName == "all"
	if all || *expName == "table1" {
		run("Table 1: spawnVM execution log", runTable1)
	}
	if all || *expName == "fig3" {
		run("Figure 3: VMs launched per second (EC2 workload)", func(ctx context.Context) error {
			return runFig3(*seed)
		})
	}
	if all || *expName == "fig4" || *expName == "fig5" || *expName == "fig45" {
		run("Figures 4 & 5: controller CPU and transaction latency (EC2 replay)", func(ctx context.Context) error {
			return runFig45(ctx, p45)
		})
	}
	if all || *expName == "safety" {
		run("§6.2 Safety: constraint enforcement overhead", func(ctx context.Context) error {
			return runSafety(ctx, *hosts, *seed)
		})
	}
	if all || *expName == "robustness" {
		run("§6.3 Robustness: transaction rollback overhead", func(ctx context.Context) error {
			return runRobustness(ctx, *seed)
		})
	}
	if all || *expName == "ha" {
		run("§6.4 High availability: controller failover", runHA)
	}
	if all || *expName == "throughput" {
		run("§6.1 Throughput vs resource scale", func(ctx context.Context) error {
			return runThroughput(ctx, *commitLat)
		})
	}
	if all || *expName == "mem" {
		run("§6.1 Memory footprint vs resource scale", func(ctx context.Context) error {
			return runMemory(*full)
		})
	}
	if all || *expName == "ablation" {
		run("§3.1.1 ablation: FIFO vs aggressive scheduling", runAblation)
	}
	if all || *expName == "pipeline" {
		// In -exp all mode only the pipeline experiment writes -json (the
		// two experiments would otherwise clobber one file).
		pipeJSON := *jsonOut
		run("Batched pipeline: group-commit throughput ablation", func(ctx context.Context) error {
			return runPipeline(ctx, *pipeTxns, parseMults(*pipeBatches), pipeJSON)
		})
	}
	if all || *expName == "shards" {
		shardsJSON := *jsonOut
		if all {
			shardsJSON = ""
		}
		run("Sharded orchestration: committed throughput vs shard count", func(ctx context.Context) error {
			return runShards(ctx, *shardTxns, parseMults(*shardCounts), shardsJSON)
		})
	}
	if all || *expName == "xshard" {
		xshardJSON := *jsonOut
		if all {
			xshardJSON = ""
		}
		run("Cross-shard transactions: 2PC throughput/latency vs single-shard", func(ctx context.Context) error {
			return runCrossShard(ctx, *xshardTxns, *xshardReps, parseMults(*xshardCounts), xshardJSON)
		})
	}
	if all || *expName == "soak" {
		soakJSON := *jsonOut
		if all {
			soakJSON = ""
		}
		run("Soak: sustained overload through admission control", func(ctx context.Context) error {
			return runSoak(ctx, exp.SoakParams{
				Txns:                *soakTxns,
				Submitters:          *soakClients,
				MaxInflightPerShard: *soakInflight,
				MaxP99Ms:            *soakP99,
			}, soakJSON)
		})
	}
	if all || *expName == "reads" {
		readsJSON := *jsonOut
		if all {
			readsJSON = ""
		}
		run("Read path: follower reads + watch-invalidated cache vs leader-only", func(ctx context.Context) error {
			return runReads(ctx, exp.ReadsParams{
				Ops:     *readsOps,
				Records: *readsRecords,
			}, readsJSON)
		})
	}
}

// runReads measures the 95/5 read/write mix on the leader-only baseline
// and with the scalable read path, printing the ablation side by side
// and optionally writing the pair as JSON (CI emits BENCH_reads.json on
// every run — the read-path speedup trajectory).
func runReads(ctx context.Context, p exp.ReadsParams, jsonPath string) error {
	res, err := exp.Reads(ctx, p)
	if err != nil {
		return err
	}
	type jsonDoc struct {
		Generated string          `json:"generated"`
		Result    exp.ReadsResult `json:"result"`
	}
	fmt.Printf("records=%d ops=%d write-every=%d\n", res.Records, res.Ops, res.WriteEvery)
	fmt.Printf("%-26s %-12s %-14s %-14s %s\n",
		"config", "reads/s", "read mean µs", "read p99 µs", "served cache/follower/leader")
	for _, m := range []exp.ReadsModeResult{res.Baseline, res.Enabled} {
		name := "leader-only (baseline)"
		if m.FollowerReads {
			name = fmt.Sprintf("follower+cache(%dMiB)", m.CacheBytes>>20)
		}
		fmt.Printf("%-26s %-12.0f %-14.1f %-14.1f %d/%d/%d\n",
			name, m.ReadsPerSecond, m.MeanReadMicros, m.P99ReadMicros,
			m.ReadStats.CacheServed, m.ReadStats.FollowerServed, m.ReadStats.LeaderServed)
	}
	fmt.Printf("read-path speedup: %.2fx\n", res.Speedup)
	if jsonPath != "" {
		doc := jsonDoc{Generated: time.Now().UTC().Format(time.RFC3339), Result: res}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	return nil
}

// runSoak drives sustained overload against the admission-controlled
// gateway and enforces the soak gates: p99 submit latency, zero stuck
// transactions, bounded queue depth, and sheds visible in the exported
// metrics. A failed gate is a nonzero exit (CI emits BENCH_soak.json on
// every run — the overload-behavior trajectory).
func runSoak(ctx context.Context, p exp.SoakParams, jsonPath string) error {
	res, err := exp.Soak(ctx, p)
	if err != nil {
		return err
	}
	type jsonDoc struct {
		Generated string         `json:"generated"`
		Result    exp.SoakResult `json:"result"`
	}
	fmt.Printf("shards=%d watermark=%d submitters=%d\n", res.Shards, res.Watermark, p.Submitters)
	fmt.Printf("accepted=%d committed=%d otherTerminal=%d stuck=%d\n",
		res.Txns, res.Committed, res.OtherTerminal, res.Stuck)
	fmt.Printf("sheds=%d exported=%d  peak backlog=%d (bound %d)\n",
		res.Sheds, int64(res.ShedsExported), res.MaxBacklog, res.DepthBound)
	fmt.Printf("throughput=%.0f txns/s  mean=%.1fms  p99=%.0fms (gate %.0fms)\n",
		res.PerSecond, res.MeanLatencyMs, res.P99LatencyMs, res.MaxP99Ms)
	if jsonPath != "" {
		doc := jsonDoc{Generated: time.Now().UTC().Format(time.RFC3339), Result: res}
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	if !res.Pass {
		return fmt.Errorf("soak gate failed:\n  %s", strings.Join(res.Failures, "\n  "))
	}
	fmt.Println("all soak gates HOLD")
	return nil
}

// runCrossShard sweeps the shard count over the cross-shard 2PC path,
// printing spanning vs same-shard throughput/latency side by side and
// optionally writing the points as JSON (CI emits BENCH_xshard.json on
// every run — the cross-shard overhead trajectory its gate reads).
func runCrossShard(ctx context.Context, txns, reps int, counts []int, jsonPath string) error {
	if len(counts) == 0 {
		counts = []int{1, 2, 4}
	}
	type jsonDoc struct {
		Generated string                 `json:"generated"`
		Txns      int                    `json:"txns"`
		Results   []exp.CrossShardResult `json:"results"`
	}
	doc := jsonDoc{Generated: time.Now().UTC().Format(time.RFC3339), Txns: txns}
	fmt.Printf("%-8s %-14s %-14s %-12s %-12s %-12s %s\n",
		"shards", "cross txns/s", "local txns/s", "overhead", "cross p99", "local p99", "committed (cross/local)")
	for _, n := range counts {
		res, err := exp.CrossShard(ctx, exp.CrossShardParams{Shards: n, Txns: txns, Reps: reps})
		if err != nil {
			return err
		}
		fmt.Printf("%-8d %-14.0f %-14.0f %-12.2f %-12.0f %-12.0f %d/%d of %d\n",
			n, res.Cross.PerSecond, res.Local.PerSecond, res.OverheadX,
			res.Cross.P99LatencyMs, res.Local.P99LatencyMs,
			res.Cross.Committed, res.Local.Committed, res.Cross.Txns)
		doc.Results = append(doc.Results, res)
	}
	if jsonPath != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	return nil
}

// runShards sweeps the shard count over the end-to-end batched pipeline
// and optionally writes the points as JSON (CI emits BENCH_shards.json
// on every run — the horizontal-scaling trajectory).
func runShards(ctx context.Context, txns int, counts []int, jsonPath string) error {
	if len(counts) == 0 {
		counts = []int{1, 2, 4, 8}
	}
	type jsonDoc struct {
		Generated string             `json:"generated"`
		Txns      int                `json:"txns"`
		Results   []exp.ShardsResult `json:"results"`
	}
	doc := jsonDoc{Generated: time.Now().UTC().Format(time.RFC3339), Txns: txns}
	fmt.Printf("%-8s %-12s %-12s %-12s %-14s %s\n",
		"shards", "txns/s", "speedup", "p99 ms", "committed", "spawnable hosts")
	var base float64
	for _, n := range counts {
		res, err := exp.Shards(ctx, exp.ShardsParams{Shards: n, Txns: txns})
		if err != nil {
			return err
		}
		if base == 0 {
			base = res.PerSecond
		}
		fmt.Printf("%-8d %-12.0f %-12.2f %-12.0f %-14s %d\n",
			n, res.PerSecond, res.PerSecond/base, res.P99LatencyMs,
			fmt.Sprintf("%d/%d", res.Committed, res.Txns), res.SpawnableHosts)
		doc.Results = append(doc.Results, res)
	}
	if jsonPath != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	return nil
}

// runPipeline sweeps the group-commit batch size over the end-to-end
// pipeline and optionally writes the points as JSON for the perf
// trajectory (CI emits BENCH_pipeline.json on every run).
func runPipeline(ctx context.Context, txns int, batches []int, jsonPath string) error {
	if len(batches) == 0 {
		batches = []int{1, 32}
	}
	type jsonDoc struct {
		Generated string               `json:"generated"`
		Txns      int                  `json:"txns"`
		Results   []exp.PipelineResult `json:"results"`
	}
	doc := jsonDoc{Generated: time.Now().UTC().Format(time.RFC3339), Txns: txns}
	fmt.Printf("%-8s %-12s %-12s %-12s %-14s %-14s %s\n",
		"batch", "txns/s", "p99 ms", "commits/txn", "drain items", "flush ms", "max flush ops")
	var base float64
	for _, batch := range batches {
		res, err := exp.Pipeline(ctx, exp.PipelineParams{Txns: txns, BatchMaxOps: batch})
		if err != nil {
			return err
		}
		meanDrain := 0.0
		if res.InBatches > 0 {
			meanDrain = float64(res.InBatchItems) / float64(res.InBatches)
		}
		fmt.Printf("%-8d %-12.0f %-12.0f %-12.1f %-14.1f %-14.2f %d\n",
			batch, res.PerSecond, res.P99LatencyMs,
			float64(res.StoreCommits)/float64(res.Txns), meanDrain, res.MeanFlushMs, res.MaxFlushOps)
		if base == 0 {
			base = res.PerSecond
		}
		doc.Results = append(doc.Results, res)
	}
	if len(doc.Results) > 1 && base > 0 {
		last := doc.Results[len(doc.Results)-1]
		fmt.Printf("group commit at batch %d: %.2fx the unbatched path\n",
			last.BatchMaxOps, last.PerSecond/base)
	}
	if jsonPath != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	return nil
}

func runAblation(ctx context.Context) error {
	results, err := exp.Ablation(ctx, exp.AblationParams{
		Hosts: 8, Txns: 48, ActionLatency: 5 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-12s %-22s %-12s %s\n", "policy", "makespan", "indep-txn latency", "deferrals", "committed")
	for _, r := range results {
		fmt.Printf("%-12s %-12v %-22v %-12d %d\n",
			r.Policy, r.Makespan.Round(time.Millisecond),
			r.IndependentLatency.Round(time.Millisecond), r.Deferrals, r.Committed)
	}
	fmt.Println("FIFO head-of-line blocks independent transactions behind a conflicted head;")
	fmt.Println("the aggressive policy trades re-simulation work (deferrals) for their latency.")
	return nil
}

func parseMults(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		var k int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &k); err == nil && k > 0 {
			out = append(out, k)
		}
	}
	return out
}

func parseWindow(s string) (int, int) {
	var from, to int
	if _, err := fmt.Sscanf(s, "%d:%d", &from, &to); err != nil {
		return 0, 3600
	}
	return from, to
}

func runTable1(ctx context.Context) error {
	res, err := exp.Table1(ctx)
	if err != nil {
		return err
	}
	fmt.Print(exp.FormatTable1(res))
	return nil
}

func runFig3(seed int64) error {
	res := exp.Fig3(seed)
	fmt.Printf("total=%d spawns  mean=%.2f/s  peak=%d/s at second %d (%.1f h)\n",
		res.Trace.Total(), res.Trace.Mean(), peakRate(res), peakSec(res), float64(peakSec(res))/3600)
	fmt.Println("\nVMs launched per second, averaged per minute (x-axis: hour fraction):")
	for m, v := range res.PerMinute {
		fmt.Printf("  %.3fh %5.2f/s %s\n", float64(m)/60, v, bar(v, 14, 50))
	}
	return nil
}

func peakSec(r exp.Fig3Result) int  { s, _ := r.Trace.Peak(); return s }
func peakRate(r exp.Fig3Result) int { _, v := r.Trace.Peak(); return v }

func runFig45(ctx context.Context, p exp.Fig45Params) error {
	fmt.Printf("hosts=%d (VM slots=%d)  window=[%d,%d)s  compression=%.0fx  commit-latency=%v\n",
		p.Hosts, p.Hosts*8, p.WindowFrom, p.WindowTo, p.Compression, p.CommitLatency)
	results, err := exp.Fig45(ctx, p)
	if err != nil {
		return err
	}
	fmt.Println("\nFigure 4 — controller busy fraction (CPU utilization proxy) per replayed second:")
	for _, r := range results {
		fmt.Printf("  %dx EC2: mean=%.1f%% peak=%.1f%%  %s\n",
			r.Multiplier, 100*r.MeanCPU, 100*r.PeakCPU,
			sparkline(r.CPUSeries))
	}
	fmt.Println("\nFigure 5 — CDF of transaction latency:")
	fmt.Printf("  %-8s %10s %10s %10s %10s %10s\n", "load", "p10", "p50", "p90", "p99", "max")
	for _, r := range results {
		fmt.Printf("  %dx EC2  %9.0fms %9.0fms %9.0fms %9.0fms %9.0fms   (n=%d, committed=%d)\n",
			r.Multiplier,
			1000*r.Latency.Quantile(0.10), 1000*r.Latency.Quantile(0.50),
			1000*r.Latency.Quantile(0.90), 1000*r.Latency.Quantile(0.99),
			1000*r.Latency.Max(), r.Submitted, r.Committed)
	}
	fmt.Println("\n  CDF points (latency ms : cumulative fraction):")
	for _, r := range results {
		pts := r.Latency.CDF(8)
		var b strings.Builder
		fmt.Fprintf(&b, "  %dx:", r.Multiplier)
		for _, pt := range pts {
			fmt.Fprintf(&b, " %.0fms:%.2f", pt.X*1000, pt.P)
		}
		fmt.Println(b.String())
	}
	return nil
}

func runSafety(ctx context.Context, hosts int, seed int64) error {
	res, err := exp.Safety(ctx, exp.SafetyParams{Hosts: min(hosts, 100), Ops: 500, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Printf("transactions=%d  constraint-check mean=%v/txn  total=%v  violations=%d\n",
		res.Txns, res.MeanConstraintTime, res.TotalConstraint, res.Violations)
	fmt.Printf("paper bound: < 10ms/txn — %s\n", verdict(res.MeanConstraintTime < 10*time.Millisecond))
	return nil
}

func runRobustness(ctx context.Context, seed int64) error {
	res, err := exp.Robustness(ctx, exp.RobustnessParams{Hosts: 8, Ops: 100, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Printf("injected errors: spawn(last step)=%d migrate(last step)=%d  aborted=%d\n",
		res.SpawnErrors, res.MigrateErrors, res.Aborted)
	fmt.Printf("logical rollback mean=%v/txn\n", res.MeanRollbackTime)
	fmt.Printf("paper bound: < 9ms/txn — %s\n", verdict(res.MeanRollbackTime < 9*time.Millisecond))
	return nil
}

func runHA(ctx context.Context) error {
	for _, st := range []time.Duration{100 * time.Millisecond, 400 * time.Millisecond} {
		res, err := exp.HA(ctx, exp.HAParams{
			Hosts: 16, OpsBeforeKill: 24, OpsDuringKill: 8, SessionTimeout: st,
		})
		if err != nil {
			return err
		}
		fmt.Printf("detection interval=%v: recovery=%v  submitted=%d committed=%d lost=%d\n",
			st, res.RecoveryTime.Round(time.Millisecond), res.Submitted, res.Committed, res.Lost)
	}
	fmt.Println("paper: recovery ≈ failure-detection interval (12.5s at their ZooKeeper settings); no transaction lost")
	return nil
}

func runThroughput(ctx context.Context, commitLat time.Duration) error {
	pts, err := exp.Throughput(ctx, []int{100, 1000, 10000}, 200, commitLat)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-12s %-12s %s\n", "hosts", "VM slots", "txns", "throughput")
	for _, p := range pts {
		fmt.Printf("%-12d %-12d %-12d %.1f txns/s\n", p.Hosts, p.Hosts*8, p.Txns, p.PerSecond)
	}
	fmt.Println("paper: throughput stays constant as resources scale (store I/O bound)")
	return nil
}

func runMemory(full bool) error {
	counts := []int{1250, 5000, 12500}
	if full {
		counts = append(counts, 50000)
	}
	pts := exp.Memory(counts)
	fmt.Printf("%-10s %-10s %-12s %-14s %-14s %s\n",
		"hosts", "VM slots", "model nodes", "heap", "bytes/slot", "projected @2M VMs")
	for _, p := range pts {
		fmt.Printf("%-10d %-10d %-12d %-14s %-14.0f %.2f GB\n",
			p.Hosts, p.VMSlots, p.ModelNodes, fmtBytes(p.HeapBytes), p.BytesPerSlot, p.Projected2MVMs)
	}
	fmt.Println("paper: footprint tracks managed-resource count; 2M VMs is the 32GB-machine ceiling")
	return nil
}

func verdict(ok bool) string {
	if ok {
		return "HOLDS"
	}
	return "VIOLATED"
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// bar renders a proportional ASCII bar.
func bar(v, max float64, width int) string {
	n := int(v / max * float64(width))
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

// sparkline renders a series as coarse ASCII levels.
func sparkline(vs []float64) string {
	if len(vs) == 0 {
		return ""
	}
	levels := []byte(" .:-=+*#%@")
	max := 0.0
	for _, v := range vs {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		max = 1
	}
	// Downsample to at most 60 chars.
	step := (len(vs) + 59) / 60
	var b strings.Builder
	for i := 0; i < len(vs); i += step {
		sum, n := 0.0, 0
		for j := i; j < i+step && j < len(vs); j++ {
			sum += vs[j]
			n++
		}
		v := sum / float64(n)
		idx := int(v / max * float64(len(levels)-1))
		if idx >= len(levels) {
			idx = len(levels) - 1
		}
		b.WriteByte(levels[idx])
	}
	return b.String()
}
