// Command atomicstore-bench regenerates the paper's evaluation: every
// figure and analytical table (DESIGN.md §5), plus the ablations and the
// async validation of the real implementation. Output is the plain-text
// tables embedded in EXPERIMENTS.md.
//
// Usage:
//
//	atomicstore-bench            # run everything
//	atomicstore-bench -fig fig3a # run one experiment
//	atomicstore-bench -list      # list experiment ids
//	atomicstore-bench -async     # include the (slower) async validation
//	atomicstore-bench -hotpath   # run the transport/codec microbenchmarks
//	                             # and write BENCH_hotpath.json
//	atomicstore-bench -grid experiments.json -grid-out paper_runs/latest
//	                             # run the reproducible experiment grid
//	                             # (add -grid-smoke for the seconds-long
//	                             # CI configuration)
//	atomicstore-bench -scenarios # run the canonical fault-injection
//	                             # scenario library through the checker
//	                             # (-scenario <name> for one, -scenario-seed
//	                             # to replay a failure, -scenario-out for
//	                             # dump artifacts)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "atomicstore-bench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		fig        = flag.String("fig", "", "run a single experiment by id (see -list)")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		async      = flag.Bool("async", false, "also run the async validation on the real implementation")
		duration   = flag.Duration("async-duration", 2*time.Second, "measurement window per async data point")
		hotpath    = flag.Bool("hotpath", false, "run the hot-path microbenchmarks and write the JSON report")
		hotpathOut = flag.String("hotpath-out", "BENCH_hotpath.json", "where -hotpath writes its report")
		echoMsgs   = flag.Int("hotpath-echo-msgs", 60000, "messages per TCP echo measurement")
		moWindow   = flag.Duration("hotpath-window", time.Second, "measurement window per multi-object data point")
		strict     = flag.Bool("hotpath-strict", false, "exit non-zero if a hot path allocates (codec encode/round trip, the pooled value decode/retire cycle, pending-set add/prune, the read fast path, the ack enqueue/fast path, the federation routing decision, the WAL append path, or the egress enqueue/flush > 0 allocs/op) or the vectored egress loses its 256 B speedup floor")
		gridFile   = flag.String("grid", "", "run the experiment grid declared in this JSON file (see experiments.json)")
		gridOut    = flag.String("grid-out", "paper_runs/latest", "output directory for -grid CSVs and summaries")
		gridSmoke  = flag.Bool("grid-smoke", false, "scale the grid down to a seconds-long smoke configuration (1 repeat, short windows, capped fleets)")
		scenarios  = flag.Bool("scenarios", false, "run the canonical fault-injection scenario library against the real server stack")
		scenName   = flag.String("scenario", "", "run a single canonical scenario by name (implies -scenarios)")
		scenSeed   = flag.Int64("scenario-seed", 0, "override the scripted seed (use the seed from a failure dump to replay it)")
		scenOut    = flag.String("scenario-out", "", "directory for replay dumps of failed scenarios")
	)
	flag.Parse()

	if *scenarios || *scenName != "" {
		return runScenarios(*scenName, *scenSeed, *scenOut)
	}

	if *gridFile != "" {
		return runGrid(*gridFile, *gridOut, *gridSmoke)
	}

	if *hotpath {
		return runHotpath(*hotpathOut, *echoMsgs, *moWindow, *strict)
	}

	experiments := bench.All()
	if *list {
		for _, e := range experiments {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		fmt.Printf("%-10s %s\n", "async", "async validation (with -async)")
		return nil
	}

	matched := false
	for _, e := range experiments {
		if *fig != "" && e.ID != *fig {
			continue
		}
		matched = true
		printExperiment(e)
	}

	if *async || *fig == "async" {
		matched = true
		ctx := context.Background()
		counts := []int{2, 4, 8}
		reads, err := bench.AsyncReadScaling(ctx, counts, 2, *duration)
		if err != nil {
			return err
		}
		printExperiment(reads)
		writes, err := bench.AsyncWriteThroughput(ctx, counts, 2, *duration)
		if err != nil {
			return err
		}
		printExperiment(writes)
	}

	if !matched {
		return fmt.Errorf("unknown experiment %q (try -list)", *fig)
	}
	return nil
}

// runHotpath runs the transport/codec microbenchmarks, prints a summary,
// and writes the JSON report tracked across PRs. With strict set it
// fails when the codec hot path is no longer allocation-free.
func runHotpath(out string, echoMsgs int, window time.Duration, strict bool) error {
	rep, err := bench.RunHotpath(context.Background(), echoMsgs, window)
	if err != nil {
		return err
	}
	fmt.Printf("== hotpath — transport/codec microbenchmarks ==\n\n")
	fmt.Printf("wire codec:    encode %.1f ns/op (%d allocs), round trip %.1f ns/op (%d allocs), %.0f MB/s\n",
		rep.Wire.EncodeNsPerOp, rep.Wire.EncodeAllocsPerOp,
		rep.Wire.RoundTripNsPerOp, rep.Wire.RoundTripAllocsPerOp, rep.Wire.MBPerSec)
	for _, row := range rep.ValuePool.Rows {
		fmt.Printf("value pool:    %4dB pooled decode + retire %.1f ns/op (%d allocs)\n",
			row.ValueBytes, row.NsPerOp, row.AllocsPerOp)
	}
	fmt.Printf("egress:        enqueue encode %.1f ns/op (%d allocs)\n",
		rep.Egress.EnqueueNsPerOp, rep.Egress.EnqueueAllocsPerOp)
	for _, row := range rep.Egress.Rows {
		fmt.Printf("               %4dB x%-3d writev %5.1f ns/frame %8.0f msgs/s (%d allocs) vs copy %5.1f ns/frame %8.0f msgs/s (%d allocs) -> %.2fx\n",
			row.PayloadBytes, row.FramesPerBatch,
			row.WritevNsPerFrame, row.WritevMsgsPerSec, row.WritevAllocsPerOp,
			row.CopyNsPerFrame, row.CopyMsgsPerSec, row.CopyAllocsPerOp, row.Speedup)
	}
	fmt.Printf("pending set:   add/prune %.1f/%.1f/%.1f ns/op at depth 1/8/64 (%d allocs), maxPending %.1f ns/op\n",
		rep.PendingSet.AddPruneNsPerOpDepth1, rep.PendingSet.AddPruneNsPerOpDepth8,
		rep.PendingSet.AddPruneNsPerOpDepth64, rep.PendingSet.AddPruneAllocsPerOp,
		rep.PendingSet.MaxPendingNsPerOp)
	fmt.Printf("read path:     lock-free %.1f ns/op (%d allocs) vs locked %.1f ns/op (%.2fx)\n",
		rep.ReadPath.LockFreeNsPerOp, rep.ReadPath.LockFreeAllocsPerOp,
		rep.ReadPath.LockedNsPerOp, rep.ReadPath.Speedup)
	fmt.Printf("tcp echo:      coalesced %.0f msgs/s, unbatched %.0f msgs/s, speedup %.2fx\n",
		rep.TCPEcho.CoalescedMsgsPerSec, rep.TCPEcho.UnbatchedMsgsPerSec, rep.TCPEcho.Speedup)
	fmt.Printf("wal:           append %.1f ns/op (%d allocs); durable recs/s per-envelope %.0f, per-train %.0f (%.2fx), interval %.0f\n",
		rep.WAL.AppendNsPerOp, rep.WAL.AppendAllocsPerOp,
		rep.WAL.PerEnvelope.RecsPerSec, rep.WAL.PerTrain.RecsPerSec, rep.WAL.TrainSpeedup,
		rep.WAL.Interval.RecsPerSec)
	fmt.Printf("multi-object:  sharded %.0f reads/s (%.0f writes/s), inline %.0f reads/s, speedup %.2fx\n",
		rep.MultiObject.ShardedReadsPerSec, rep.MultiObject.ShardedWritesPerSec,
		rep.MultiObject.InlineReadsPerSec, rep.MultiObject.ReadSpeedup)
	fmt.Printf("lane scaling:  contended L4 %.0f vs L1 %.0f writes/s (%.2fx), write-only %.2fx\n",
		rep.LaneScaling.ContendedWritesPerSecLane4, rep.LaneScaling.ContendedWritesPerSecLane1,
		rep.LaneScaling.ContendedSpeedup, rep.LaneScaling.WriteOnlySpeedup)
	fmt.Printf("train scaling: contended T8 %.0f vs T1 %.0f writes/s (%.2fx), write-only %.2fx\n",
		rep.TrainScaling.ContendedWritesPerSecTrain8, rep.TrainScaling.ContendedWritesPerSecTrain1,
		rep.TrainScaling.ContendedSpeedup, rep.TrainScaling.WriteOnlySpeedup)
	fmt.Printf("ack path:      enqueue fast %.1f ns/op (%d allocs), queued %.1f ns/op (%d allocs)\n",
		rep.AckPath.EnqueueFastNsPerOp, rep.AckPath.EnqueueFastAllocsPerOp,
		rep.AckPath.EnqueueQueuedNsPerOp, rep.AckPath.EnqueueQueuedAllocsPerOp)
	fmt.Printf("               windowed fleet (%d clients): sharded %.0f done/s p50 %.0fus (fast share %.2f) vs legacy %.0f done/s p50 %.0fus -> %.2fx throughput\n",
		rep.AckPath.Clients,
		rep.AckPath.WindowedShardedPerSec, rep.AckPath.WindowedShardedP50Us, rep.AckPath.ShardedFastShare,
		rep.AckPath.WindowedLegacyPerSec, rep.AckPath.WindowedLegacyP50Us,
		rep.AckPath.ThroughputSpeedup)
	fmt.Printf("               open-loop fleet @ %.0f/s: sharded p95/p99 %.0f/%.0f us vs legacy %.0f/%.0f us -> %.2fx p99\n",
		rep.AckPath.OpenLoopOfferedPerSec,
		rep.AckPath.OpenLoopShardedP95Us, rep.AckPath.OpenLoopShardedP99Us,
		rep.AckPath.OpenLoopLegacyP95Us, rep.AckPath.OpenLoopLegacyP99Us,
		rep.AckPath.OpenLoopP99Ratio)
	for _, row := range rep.OpenLoop.Rows {
		fmt.Printf("open loop:     %-8s offered %6.0f/s -> sent %6.0f/s done %6.0f/s  p50/p95/p99 %.0f/%.0f/%.0f us\n",
			row.Mode, row.OfferedPerSec, row.SentPerSec, row.CompletedPerSec,
			row.P50Us, row.P95Us, row.P99Us)
	}
	for _, row := range rep.Federation.Rows {
		fmt.Printf("federation:    R=%d (%dx%d servers) sent %6.0f/s done %6.0f/s  imbalance %.2f%%  p99 %.1fms\n",
			row.Rings, row.Rings, row.ServersPerRing,
			row.SentPerSec, row.CompletedPerSec, row.ImbalancePct, row.P99Ms)
	}
	fmt.Printf("               routing decision %.1f ns/op (%d allocs)\n",
		rep.Federation.RouteNsPerOp, rep.Federation.RouteAllocsPerOp)
	if err := rep.WriteJSON(out); err != nil {
		return err
	}
	fmt.Printf("\nreport written to %s\n", out)
	if strict {
		if rep.Wire.EncodeAllocsPerOp != 0 || rep.Wire.RoundTripAllocsPerOp != 0 {
			return fmt.Errorf("codec hot path allocates: encode %d allocs/op, round trip %d allocs/op (want 0)",
				rep.Wire.EncodeAllocsPerOp, rep.Wire.RoundTripAllocsPerOp)
		}
		for _, row := range rep.ValuePool.Rows {
			if row.AllocsPerOp != 0 {
				return fmt.Errorf("pooled value decode/retire cycle allocates at %d B: %d allocs/op (want 0)",
					row.ValueBytes, row.AllocsPerOp)
			}
		}
		if rep.PendingSet.AddPruneAllocsPerOp != 0 {
			return fmt.Errorf("pending-set add/prune allocates: %d allocs/op (want 0)",
				rep.PendingSet.AddPruneAllocsPerOp)
		}
		if rep.ReadPath.LockFreeAllocsPerOp != 0 {
			return fmt.Errorf("read fast path allocates: %d allocs/op (want 0)",
				rep.ReadPath.LockFreeAllocsPerOp)
		}
		if rep.AckPath.EnqueueFastAllocsPerOp != 0 || rep.AckPath.EnqueueQueuedAllocsPerOp != 0 {
			return fmt.Errorf("ack enqueue allocates: fast path %d allocs/op, queued path %d allocs/op (want 0)",
				rep.AckPath.EnqueueFastAllocsPerOp, rep.AckPath.EnqueueQueuedAllocsPerOp)
		}
		if rep.Federation.RouteAllocsPerOp != 0 {
			return fmt.Errorf("federation routing decision allocates: %d allocs/op (want 0)",
				rep.Federation.RouteAllocsPerOp)
		}
		if rep.WAL.AppendAllocsPerOp != 0 {
			return fmt.Errorf("wal append path allocates: %d allocs/op (want 0)",
				rep.WAL.AppendAllocsPerOp)
		}
		if rep.Egress.EnqueueAllocsPerOp != 0 {
			return fmt.Errorf("egress enqueue encode allocates: %d allocs/op (want 0)",
				rep.Egress.EnqueueAllocsPerOp)
		}
		for _, row := range rep.Egress.Rows {
			if row.WritevAllocsPerOp != 0 || row.CopyAllocsPerOp != 0 {
				return fmt.Errorf("egress flush allocates at %d B: writev %d allocs/op, copy %d allocs/op (want 0)",
					row.PayloadBytes, row.WritevAllocsPerOp, row.CopyAllocsPerOp)
			}
			if row.PayloadBytes == 256 && row.Speedup < 1.15 {
				return fmt.Errorf("vectored egress regressed: %.2fx msgs/s over the copy pipeline at 256 B (want >= 1.15x)",
					row.Speedup)
			}
		}
	}
	return nil
}

// runGrid executes the reproducible experiment grid and writes its CSVs
// and summaries.
func runGrid(file, out string, smoke bool) error {
	spec, err := bench.LoadGrid(file)
	if err != nil {
		return err
	}
	if smoke {
		spec = spec.Smoke()
		fmt.Printf("grid: smoke configuration (1 repeat, short windows, capped fleets)\n")
	}
	logf := func(format string, args ...any) { fmt.Printf(format+"\n", args...) }
	if _, err := bench.RunGrid(spec, out, logf); err != nil {
		return err
	}
	fmt.Printf("grid results written to %s\n", out)
	return nil
}

// printExperiment renders one experiment.
func printExperiment(e bench.Experiment) {
	fmt.Printf("== %s — %s ==\n\n", e.ID, e.Title)
	fmt.Println(e.Table.String())
	if e.Notes != "" {
		fmt.Printf("note: %s\n", e.Notes)
	}
	fmt.Println()
}
