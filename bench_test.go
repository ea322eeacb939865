// Package repro_test hosts the benchmark harness: one testing.B benchmark
// per table and figure of the paper's evaluation (see DESIGN.md §5 for
// the experiment index and EXPERIMENTS.md for recorded results). The
// figure benchmarks run the round-model simulator and report the paper's
// headline metrics via b.ReportMetric; the async benchmarks exercise the
// real goroutine implementation end to end.
package repro_test

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/simstore"
	"repro/internal/tag"
	"repro/internal/tcpnet"
	"repro/internal/wire"
	"repro/internal/workload"
)

// reportSimRing runs one simulated ring configuration per iteration and
// reports rates.
func reportSimRing(b *testing.B, cfg simstore.RingConfig, n, readersPer, readPipe, writersPer, writePipe, rounds, warmup int) (readRate, writeRate, bottleneck float64) {
	b.Helper()
	cal := netsim.DefaultCalibration()
	for i := 0; i < b.N; i++ {
		m := &simstore.Metrics{WarmupRounds: warmup}
		ring := make([]int, n)
		for j := range ring {
			ring[j] = j + 1
		}
		var procs []netsim.Process
		for _, id := range ring {
			procs = append(procs, &simstore.RingServer{IDNum: id, Ring: ring, Cal: cal, Cfg: cfg})
		}
		next := 1000
		for _, id := range ring {
			for r := 0; r < readersPer; r++ {
				next++
				procs = append(procs, &simstore.Client{IDNum: next, Server: id, Reads: true, Pipeline: readPipe, Cal: cal, M: m})
			}
			for w := 0; w < writersPer; w++ {
				next++
				procs = append(procs, &simstore.Client{IDNum: next, Server: id, Reads: false, Pipeline: writePipe, Cal: cal, M: m})
			}
		}
		sim := netsim.MustNew(netsim.Config{SharedNetwork: cfg.SharedNetwork}, procs...)
		sim.Run(rounds)
		m.Finish(rounds)
		readRate = m.ReadRate()
		writeRate = m.WriteRate()
		bottleneck = sim.Stats().BottleneckBytesPerRound()
	}
	return readRate, writeRate, bottleneck
}

// BenchmarkFig1 regenerates the motivating comparison of Figure 1.
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := bench.Fig1()
		if len(e.Table.Rows) != 2 {
			b.Fatalf("unexpected fig1 rows: %v", e.Table.Rows)
		}
	}
}

// BenchmarkSec41Latency checks the §4.1 latency formulae per ring size.
func BenchmarkSec41Latency(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) {
			cal := netsim.DefaultCalibration()
			var lat float64
			for i := 0; i < b.N; i++ {
				m := &simstore.Metrics{}
				ring := make([]int, n)
				var procs []netsim.Process
				for j := range ring {
					ring[j] = j + 1
				}
				for _, id := range ring {
					procs = append(procs, &simstore.RingServer{IDNum: id, Ring: ring, Cal: cal})
				}
				procs = append(procs, &simstore.Client{IDNum: 1000, Server: 1, Reads: false, Pipeline: 1, Cal: cal, M: m})
				sim := netsim.MustNew(netsim.Config{}, procs...)
				rounds := 20 * (2*n + 2)
				sim.Run(rounds)
				m.Finish(rounds)
				lat = m.MeanWriteLatency()
			}
			b.ReportMetric(lat, "write-rounds")
			b.ReportMetric(float64(2*n+2), "expected-rounds")
		})
	}
}

// BenchmarkSec42Throughput checks the §4.2 throughput claims.
func BenchmarkSec42Throughput(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) {
			readRate, _, _ := reportSimRing(b, simstore.RingConfig{}, n, 2, 2, 0, 0, 800, 200)
			_, writeRate, _ := reportSimRing(b, simstore.RingConfig{}, n, 0, 0, 2, 2, 1500, 400)
			b.ReportMetric(readRate, "reads/round")
			b.ReportMetric(writeRate, "writes/round")
		})
	}
}

// BenchmarkFig3aReadThroughput sweeps the read-scaling chart.
func BenchmarkFig3aReadThroughput(b *testing.B) {
	cal := netsim.DefaultCalibration()
	for _, n := range bench.ServerCounts {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) {
			readRate, _, bb := reportSimRing(b, simstore.RingConfig{}, n, 2, 2, 0, 0, 1200, 300)
			b.ReportMetric(cal.ThroughputMbps(readRate, bb), "Mbit/s")
		})
	}
}

// BenchmarkFig3bWriteThroughput sweeps the flat-writes chart.
func BenchmarkFig3bWriteThroughput(b *testing.B) {
	cal := netsim.DefaultCalibration()
	for _, n := range bench.ServerCounts {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) {
			_, writeRate, bb := reportSimRing(b, simstore.RingConfig{}, n, 0, 0, 2, 2, 1500, 400)
			b.ReportMetric(cal.ThroughputMbps(writeRate, bb), "Mbit/s")
		})
	}
}

// BenchmarkFig3cContentionSeparate sweeps the dual-network contention
// chart.
func BenchmarkFig3cContentionSeparate(b *testing.B) {
	benchContention(b, false)
}

// BenchmarkFig3dContentionShared sweeps the shared-network contention
// chart.
func BenchmarkFig3dContentionShared(b *testing.B) {
	benchContention(b, true)
}

func benchContention(b *testing.B, shared bool) {
	b.Helper()
	cal := netsim.DefaultCalibration()
	for _, n := range []int{2, 4, 6, 8} {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) {
			cfg := simstore.RingConfig{SharedNetwork: shared}
			readPipe := 6 * n
			if readPipe < 24 {
				readPipe = 24
			}
			writePipe := 2 * n
			if writePipe < 16 {
				writePipe = 16
			}
			readRate, writeRate, bb := reportSimRing(b, cfg, n, 1, readPipe, 1, writePipe, 4000, 1000)
			b.ReportMetric(cal.ThroughputMbps(readRate, bb), "read-Mbit/s")
			b.ReportMetric(cal.ThroughputMbps(writeRate, bb), "write-Mbit/s")
		})
	}
}

// BenchmarkFig4Latency sweeps the latency chart.
func BenchmarkFig4Latency(b *testing.B) {
	cal := netsim.DefaultCalibration()
	for _, n := range []int{2, 5, 8} {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) {
			var read, write float64
			for i := 0; i < b.N; i++ {
				e := readWriteLatency(n)
				read, write = e[0], e[1]
			}
			bb := float64(cal.PayloadFrameBytes())
			b.ReportMetric(cal.LatencyMillis(read, bb), "read-ms")
			b.ReportMetric(cal.LatencyMillis(write, bb), "write-ms")
		})
	}
}

// readWriteLatency measures isolated latencies in rounds.
func readWriteLatency(n int) [2]float64 {
	cal := netsim.DefaultCalibration()
	run := func(reads bool, rounds int) float64 {
		m := &simstore.Metrics{}
		ring := make([]int, n)
		var procs []netsim.Process
		for j := range ring {
			ring[j] = j + 1
		}
		for _, id := range ring {
			procs = append(procs, &simstore.RingServer{IDNum: id, Ring: ring, Cal: cal})
		}
		procs = append(procs, &simstore.Client{IDNum: 1000, Server: 1, Reads: reads, Pipeline: 1, Cal: cal, M: m})
		sim := netsim.MustNew(netsim.Config{}, procs...)
		sim.Run(rounds)
		m.Finish(rounds)
		if reads {
			return m.MeanReadLatency()
		}
		return m.MeanWriteLatency()
	}
	return [2]float64{run(true, 200), run(false, 30*(2*n+2))}
}

// BenchmarkComparisonBaselines regenerates the §4.2 baseline comparison.
func BenchmarkComparisonBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := bench.Comparison()
		if len(e.Table.Rows) == 0 {
			b.Fatal("empty comparison")
		}
	}
}

// BenchmarkAblationPiggyback quantifies piggybacking (DESIGN.md §5).
func BenchmarkAblationPiggyback(b *testing.B) {
	for _, piggy := range []bool{true, false} {
		b.Run("piggyback="+strconv.FormatBool(piggy), func(b *testing.B) {
			cfg := simstore.RingConfig{DisablePiggyback: !piggy}
			_, writeRate, _ := reportSimRing(b, cfg, 4, 0, 0, 2, 2, 1500, 400)
			b.ReportMetric(writeRate, "writes/round")
		})
	}
}

// BenchmarkAblationFairness contrasts the nb_msg rule with FIFO
// forwarding.
func BenchmarkAblationFairness(b *testing.B) {
	for _, fair := range []bool{true, false} {
		b.Run("fairness="+strconv.FormatBool(fair), func(b *testing.B) {
			cfg := simstore.RingConfig{DisableFairness: !fair}
			_, writeRate, _ := reportSimRing(b, cfg, 4, 0, 0, 2, 2, 1500, 400)
			b.ReportMetric(writeRate, "writes/round")
		})
	}
}

// BenchmarkAblationValueElision compares elided write-phase messages
// (default) with full-value writes (the paper's literal pseudo-code) on
// the real implementation. (The old pending-mode ablation is gone:
// receive-time pending is the default since the one-lock commit path.)
func BenchmarkAblationValueElision(b *testing.B) {
	for _, elide := range []bool{true, false} {
		b.Run("elision="+strconv.FormatBool(elide), func(b *testing.B) {
			res := runAsync(b, 3, 1, 1, func(c *coreConfig) { c.DisableValueElision = !elide })
			b.ReportMetric(res.ReadOpsPerSec, "reads/s")
			b.ReportMetric(res.WriteOpsPerSec, "writes/s")
		})
	}
}

// coreConfig aliases the server config for the ablation closures.
type coreConfig = core.Config

// BenchmarkAsyncReadScaling validates read scaling on the real
// implementation (shape of Figure 3a).
func BenchmarkAsyncReadScaling(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) {
			res := runAsync(b, n, 2, 0, nil)
			b.ReportMetric(res.ReadOpsPerSec, "reads/s")
		})
	}
}

// BenchmarkAsyncWriteThroughput validates flat writes on the real
// implementation (shape of Figure 3b).
func BenchmarkAsyncWriteThroughput(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) {
			res := runAsync(b, n, 0, 2, nil)
			b.ReportMetric(res.WriteOpsPerSec, "writes/s")
		})
	}
}

// BenchmarkAsyncMixedContention validates the contended mix end to end.
func BenchmarkAsyncMixedContention(b *testing.B) {
	res := runAsync(b, 4, 1, 1, nil)
	b.ReportMetric(res.ReadOpsPerSec, "reads/s")
	b.ReportMetric(res.WriteOpsPerSec, "writes/s")
}

// BenchmarkWireCodec measures the allocating frame encode/decode (the
// seed's hot path, kept as the baseline for the pooled variants below).
func BenchmarkWireCodec(b *testing.B) {
	val := make([]byte, 1024)
	pb := wire.Envelope{Kind: wire.KindWrite, Origin: 2, Tag: tag.Tag{TS: 9, ID: 2}, Flags: wire.FlagValueElided}
	f := wire.Frame{
		Env:       wire.Envelope{Kind: wire.KindPreWrite, Origin: 1, Tag: tag.Tag{TS: 10, ID: 1}, Value: val},
		Piggyback: &pb,
	}
	b.ReportAllocs()
	var buf []byte
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = wire.AppendFrame(buf[:0], &f)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wire.DecodeFrameBody(buf[4:]); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(f.WireSize()))
}

// BenchmarkWireEncode measures the pooled encoder: AppendTo into a
// reused buffer must run at 0 allocs/op in steady state. The loop lives
// in internal/bench so the BENCH_hotpath.json report measures the
// identical thing.
func BenchmarkWireEncode(b *testing.B) { bench.WireEncodeLoop(b) }

// BenchmarkWireEncodeDecodePooled measures the full pooled round trip:
// AppendTo plus the aliasing DecodeFrom into a reused Frame — the
// request/ack path of the TCP transport — at 0 allocs/op.
func BenchmarkWireEncodeDecodePooled(b *testing.B) { bench.WireRoundTripLoop(b) }

// BenchmarkWirePooledValueCycle measures the inbound value cycle of a
// lane server's TCP reader: a pooled decode, which copies the value into
// a buffer of its size class, then RetireValue — 0 allocs/op. The loop
// lives in internal/bench so BENCH_hotpath.json measures the identical
// thing.
func BenchmarkWirePooledValueCycle(b *testing.B) {
	for _, n := range []int{128, 1024} {
		b.Run(fmt.Sprintf("value=%dB", n), bench.PooledValueCycleLoop(n))
	}
}

// BenchmarkFederationRoute measures the federated client's per-
// operation routing decision (placement.RingOf) at 0 allocs/op. The
// loop lives in internal/bench so BENCH_hotpath.json measures the
// identical thing.
func BenchmarkFederationRoute(b *testing.B) { bench.RouteLoop(b) }

// BenchmarkPendingSet measures the sorted pending set's steady-state
// add/prune cycle — the per-committed-envelope churn of a saturated
// lane — at several backlog depths, at 0 allocs/op (the old map pair
// paid two hash-map operations plus a full scan per read admission).
func BenchmarkPendingSet(b *testing.B) {
	for _, depth := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("depth=%d", depth), bench.PendingSetOpsLoop(depth))
	}
}

// BenchmarkWALAppend measures staging one record into the write-ahead
// log's lane buffer — encode, CRC, copy — the cost every committed
// envelope pays on the commit path, at 0 allocs/op. The loop lives in
// internal/bench so BENCH_hotpath.json measures the identical thing.
func BenchmarkWALAppend(b *testing.B) { bench.WALAppendLoop(b) }

// BenchmarkReadPathLockFree measures the snapshot-based read serve
// decision (one atomic load, 0 allocs/op, no shard lock)...
func BenchmarkReadPathLockFree(b *testing.B) { bench.ReadPathFastLoop(b) }

// BenchmarkReadPathLocked ...against the locked decision it replaced.
func BenchmarkReadPathLocked(b *testing.B) { bench.ReadPathLockedLoop(b) }

// BenchmarkTCPEcho measures end-to-end message throughput over loopback
// TCP, comparing the coalescing writer against the flush-per-frame
// baseline (the acceptance bar is coalesced >= 1.5x unbatched).
func BenchmarkTCPEcho(b *testing.B) {
	for _, tc := range []struct {
		name string
		opts tcpnet.Options
	}{
		{"coalesced", tcpnet.Options{}},
		{"unbatched", tcpnet.Options{DisableCoalescing: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			// 256-byte payloads keep the echo syscall-bound, isolating
			// the writer's coalescing from loopback memory bandwidth.
			rate, err := bench.TCPEchoThroughput(tc.opts, b.N, 256)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(256)
			b.ReportMetric(rate, "msgs/s")
		})
	}
}

// BenchmarkTCPEchoBatchSweep sweeps the coalescing writer's two knobs —
// MaxBatchBytes and FlushInterval — around the defaults, re-tuned for
// the per-lane-connection era (each lane now owns a socket, so batches
// form per lane). Run with a fixed count, e.g. -benchtime 40000x;
// EXPERIMENTS.md records the sweep behind the current defaults.
func BenchmarkTCPEchoBatchSweep(b *testing.B) {
	for _, batch := range []int{16 << 10, 32 << 10, 64 << 10, 128 << 10} {
		for _, flush := range []time.Duration{0, 100 * time.Microsecond} {
			b.Run(fmt.Sprintf("batch=%dKiB/flush=%s", batch>>10, flush), func(b *testing.B) {
				rate, err := bench.TCPEchoThroughput(tcpnet.Options{
					MaxBatchBytes: batch, FlushInterval: flush,
				}, b.N, 256)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(256)
				b.ReportMetric(rate, "msgs/s")
			})
		}
	}
}

// BenchmarkMultiObjectThroughput measures aggregate multi-object
// read/write throughput on the real implementation, sharded read path
// versus the inline baseline.
func BenchmarkMultiObjectThroughput(b *testing.B) {
	for _, tc := range []struct {
		name string
		mod  func(*coreConfig)
	}{
		{"sharded", nil},
		{"inline", func(c *coreConfig) { c.ReadConcurrency = -1; c.WriteLanes = -1 }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var reads, writes float64
			for i := 0; i < b.N; i++ {
				var err error
				reads, writes, err = bench.MultiObjectThroughput(context.Background(), 3, 8, 300*time.Millisecond, tc.mod)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(reads, "reads/s")
			b.ReportMetric(writes, "writes/s")
		})
	}
}

// BenchmarkMultiObjectWriteThroughput measures aggregate multi-object
// write throughput on the real implementation across the lane fanout:
// 8 objects at 1, 2, and 4 ring lanes. The contended variant (2 readers
// per object, the workload where one event loop caps writes) is the
// lane-scaling acceptance metric — lanes=4 must be >= 1.5x lanes=1,
// recorded in EXPERIMENTS.md and BENCH_hotpath.json; the write-only
// variant isolates the bare ring write path (CPU-bound on one core).
func BenchmarkMultiObjectWriteThroughput(b *testing.B) {
	for _, tc := range []struct {
		name    string
		readers int
	}{
		{"contended", 2},
		{"writeonly", 0},
	} {
		for _, lanes := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/lanes=%d", tc.name, lanes), func(b *testing.B) {
				var writes float64
				for i := 0; i < b.N; i++ {
					var err error
					writes, err = bench.MultiObjectWriteThroughput(context.Background(), 3, 8, lanes, 1, tc.readers, 300*time.Millisecond)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(writes, "writes/s")
			})
		}
	}
}

// BenchmarkRingTrainThroughput measures the ring write path's capacity
// across the frame-train length at the default 4-lane fanout, with
// windowed request drivers (128 writes outstanding per server over 256
// objects; the contended variant adds a 32-read window per server) so
// the ring pipeline, not client scheduling, is the bottleneck. The
// contended variant is the train-scaling acceptance metric — train=8
// must be >= 1.5x train=1, recorded in EXPERIMENTS.md and
// BENCH_hotpath.json.
func BenchmarkRingTrainThroughput(b *testing.B) {
	for _, tc := range []struct {
		name       string
		readWindow int
	}{
		{"contended", 32},
		{"writeonly", 0},
	} {
		for _, train := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("%s/train=%d", tc.name, train), func(b *testing.B) {
				var res bench.RingLoadResult
				for i := 0; i < b.N; i++ {
					var err error
					res, err = bench.RingWriteThroughput(3, 256, 4, train, 128, tc.readWindow, 300*time.Millisecond)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(res.WritesPerSec, "writes/s")
				b.ReportMetric(res.AvgTrainLen, "envs/frame")
			})
		}
	}
}

// BenchmarkTCPTrainThroughput is the same comparison over real loopback
// TCP (session endpoints, per-lane connections, pooled inbound values),
// with closed-loop clients: per-frame costs here include real encode
// and socket work. Slower and noisier than the in-memory driver
// harness; useful as the deployment-shaped cross-check.
func BenchmarkTCPTrainThroughput(b *testing.B) {
	for _, train := range []int{1, 8} {
		b.Run(fmt.Sprintf("train=%d", train), func(b *testing.B) {
			var writes float64
			for i := 0; i < b.N; i++ {
				cluster, err := bench.NewTCPCluster(3, func(c *coreConfig) {
					c.WriteLanes = 4
					c.TrainLength = train
				})
				if err != nil {
					b.Fatal(err)
				}
				var done atomic.Uint64
				var wg sync.WaitGroup
				value := make([]byte, 1024)
				const objects = 64
				// Dial every client before the clock starts: 64 TCP
				// handshakes on a loaded runner would otherwise eat a
				// variable slice of the measured window.
				clients := make([]*client.Client, objects)
				for obj := 0; obj < objects; obj++ {
					cl, err := cluster.NewClient(cluster.Members[obj%3])
					if err != nil {
						b.Fatal(err)
					}
					clients[obj] = cl
				}
				runCtx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
				for obj := 0; obj < objects; obj++ {
					cl := clients[obj]
					wg.Add(1)
					go func(obj int) {
						defer wg.Done()
						for runCtx.Err() == nil {
							if _, err := cl.Write(runCtx, wire.ObjectID(obj), value); err == nil {
								done.Add(1)
							}
						}
					}(obj)
				}
				start := time.Now()
				<-runCtx.Done()
				elapsed := time.Since(start).Seconds()
				cancel()
				wg.Wait()
				cluster.Close()
				writes = float64(done.Load()) / elapsed
			}
			b.ReportMetric(writes, "writes/s")
		})
	}
}

// runAsync drives the real implementation for a short measured window.
func runAsync(b *testing.B, n, readersPer, writersPer int, mod func(*coreConfig)) workload.Result {
	b.Helper()
	var res workload.Result
	for i := 0; i < b.N; i++ {
		cluster, err := bench.NewAsyncCluster(n, mod)
		if err != nil {
			b.Fatal(err)
		}
		var readers, writers []workload.Storage
		var closers []interface{ Close() error }
		for _, id := range cluster.Members {
			for r := 0; r < readersPer; r++ {
				cl, err := cluster.NewClient(id)
				if err != nil {
					b.Fatal(err)
				}
				closers = append(closers, cl)
				readers = append(readers, cl)
			}
			for w := 0; w < writersPer; w++ {
				cl, err := cluster.NewClient(id)
				if err != nil {
					b.Fatal(err)
				}
				closers = append(closers, cl)
				writers = append(writers, cl)
			}
		}
		res = workload.Run(context.Background(), workload.Config{
			Readers:     readers,
			Writers:     writers,
			Concurrency: 4,
			Duration:    400 * time.Millisecond,
			Warmup:      100 * time.Millisecond,
		})
		for _, c := range closers {
			_ = c.Close()
		}
		cluster.Close()
	}
	return res
}
