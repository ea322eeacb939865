package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tag"
	"repro/internal/tcpnet"
	"repro/internal/wire"
)

// HotpathReport captures the transport/codec microbenchmarks tracked
// across PRs in BENCH_hotpath.json (regenerate with
// `atomicstore-bench -hotpath`). The three sections mirror the three
// hot-path optimizations: the pooled codec, the coalescing TCP writer,
// and the sharded per-object server state.
type HotpathReport struct {
	// GoVersion and GoMaxProcs identify the measuring host well enough
	// to compare runs.
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`

	Wire         WireCodecStats    `json:"wire_codec"`
	ValuePool    ValuePoolStats    `json:"value_pool"`
	Egress       EgressStats       `json:"egress"`
	TCPEcho      TCPEchoStats      `json:"tcp_echo"`
	PendingSet   PendingSetStats   `json:"pending_set"`
	ReadPath     ReadPathStats     `json:"read_path"`
	MultiObject  MultiObjectStats  `json:"multi_object"`
	LaneScaling  LaneScalingStats  `json:"lane_scaling"`
	TrainScaling TrainScalingStats `json:"train_scaling"`
	AckPath      AckPathStats      `json:"ack_path"`
	OpenLoop     OpenLoopStats     `json:"open_loop"`
	Federation   FederationStats   `json:"federation"`
	WAL          WALHotStats       `json:"wal"`
}

// Sizing for the WAL group-commit sweep: enough records that the
// per-envelope fsync column is a real measurement, few enough that a
// slow CI disk finishes it in seconds. The train length matches the
// ring's default frame train.
const (
	walSweepRecords  = 512
	walSweepTrainLen = 8
	walSweepValue    = 1024
)

// Fleet sizing for the ack-path sections: large enough that the single
// shared ackLoop demonstrably serializes (>= 1k destinations), small
// enough that a CI runner sets it up in well under a second. The
// offered rate is one both ack paths sustain on a single core, so the
// open-loop rows compare delivery delay rather than capacity.
const (
	ackPathFleetClients = 1200
	ackPathOfferedRate  = 40000
)

// PendingSetStats reports the sorted pending set's steady-state
// add/prune cycle (the per-committed-envelope churn of a saturated
// lane) at several depths, plus the O(1) maxPending query. Allocs must
// be 0 at every depth; -hotpath-strict enforces it.
type PendingSetStats struct {
	AddPruneNsPerOpDepth1  float64 `json:"add_prune_ns_per_op_depth1"`
	AddPruneNsPerOpDepth8  float64 `json:"add_prune_ns_per_op_depth8"`
	AddPruneNsPerOpDepth64 float64 `json:"add_prune_ns_per_op_depth64"`
	// AddPruneAllocsPerOp is the worst allocs/op across the depths.
	AddPruneAllocsPerOp int64 `json:"add_prune_allocs_per_op"`
	// MaxPendingNsPerOp is the read barrier's maxPending query at depth
	// 64 (a full map scan before the sorted set; now one slice index).
	MaxPendingNsPerOp float64 `json:"max_pending_ns_per_op"`
}

// ReadPathStats compares the read admission decision lock-free (one
// snapshot load) against the locked path it replaced. The fast path
// must not allocate; -hotpath-strict enforces it.
type ReadPathStats struct {
	LockFreeNsPerOp     float64 `json:"lock_free_ns_per_op"`
	LockFreeAllocsPerOp int64   `json:"lock_free_allocs_per_op"`
	LockedNsPerOp       float64 `json:"locked_ns_per_op"`
	// Speedup is locked/lock-free time per decision (uncontended; the
	// real win is the absence of contention, which multi_object shows).
	Speedup float64 `json:"speedup"`
}

// WireCodecStats reports the pooled encode/decode round trip.
type WireCodecStats struct {
	// EncodeNsPerOp and EncodeAllocsPerOp measure Frame.AppendTo into a
	// reused buffer (1 KiB payload plus elided piggyback).
	EncodeNsPerOp     float64 `json:"encode_ns_per_op"`
	EncodeAllocsPerOp int64   `json:"encode_allocs_per_op"`
	// RoundTripNsPerOp and RoundTripAllocsPerOp add the aliasing
	// DecodeFrom into a reused Frame. Steady state must be 0 allocs.
	RoundTripNsPerOp     float64 `json:"round_trip_ns_per_op"`
	RoundTripAllocsPerOp int64   `json:"round_trip_allocs_per_op"`
	// MBPerSec is the round-trip encode+decode goodput.
	MBPerSec float64 `json:"mb_per_sec"`
}

// ValuePoolStats reports the inbound value cycle of a lane server's
// TCP reader: a pooled decode of a one-envelope pre-write, which copies
// the value into a buffer of its size class, then RetireValue. Steady
// state must be 0 allocs/op at every size; -hotpath-strict enforces it.
type ValuePoolStats struct {
	Rows []ValuePoolRow `json:"rows"`
}

// ValuePoolRow is the value cycle at one value size.
type ValuePoolRow struct {
	ValueBytes  int     `json:"value_bytes"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// valuePoolSizes are the gated value sizes: the 128 B and 1 KiB values
// of the repository benchmark's two workloads.
var valuePoolSizes = []int{128, 1024}

// TCPEchoStats compares the coalescing writer against the
// flush-per-frame baseline on a loopback echo.
type TCPEchoStats struct {
	Messages            int     `json:"messages"`
	PayloadBytes        int     `json:"payload_bytes"`
	CoalescedMsgsPerSec float64 `json:"coalesced_msgs_per_sec"`
	UnbatchedMsgsPerSec float64 `json:"unbatched_msgs_per_sec"`
	// Speedup is coalesced/unbatched; the acceptance bar is >= 1.5.
	Speedup float64 `json:"speedup"`
}

// MultiObjectStats compares multi-object read throughput of the sharded
// server (read-path workers + shard locks, lane-sharded write path)
// against the inline single-goroutine baseline (no read workers, one
// lane — the pre-sharding server). Closed-loop load makes the read and
// write rates trade off, so ShardedWritesPerSec is reported alongside:
// the sharded server completes orders of magnitude more writes in the
// same window, which costs it read completions.
type MultiObjectStats struct {
	Servers             int     `json:"servers"`
	Objects             int     `json:"objects"`
	Seconds             float64 `json:"seconds"`
	ShardedReadsPerSec  float64 `json:"sharded_reads_per_sec"`
	ShardedWritesPerSec float64 `json:"sharded_writes_per_sec"`
	InlineReadsPerSec   float64 `json:"inline_reads_per_sec"`
	// ReadSpeedup is sharded/inline read throughput.
	ReadSpeedup float64 `json:"read_speedup"`
}

// LaneScalingStats compares multi-object write throughput of the
// lane-sharded ring write path (L=4) against the single-loop baseline
// (L=1) on the in-memory transport: the PR-2 tentpole metric. The
// headline row is the contended workload (1 writer + 2 readers per
// object), where the single event loop dispatches every read and every
// object's ring traffic and write completions collapse — exactly the
// cap the lanes remove. The write-only row is reported for honesty: on
// a single-core host it is pure CPU with nothing to overlap, so lanes
// are neutral-to-negative there until the host has cores to use.
type LaneScalingStats struct {
	Servers int     `json:"servers"`
	Objects int     `json:"objects"`
	Seconds float64 `json:"seconds"`
	// ContendedWritesPerSecLane1/Lane4: writes/s with 2 readers per
	// object hammering the same servers.
	ContendedWritesPerSecLane1 float64 `json:"contended_writes_per_sec_lane1"`
	ContendedWritesPerSecLane4 float64 `json:"contended_writes_per_sec_lane4"`
	// ContendedSpeedup is lane4/lane1; the acceptance bar is >= 1.5.
	ContendedSpeedup float64 `json:"contended_speedup"`
	// WriteOnlyWritesPerSecLane1/Lane4: writers only, no read load.
	WriteOnlyWritesPerSecLane1 float64 `json:"write_only_writes_per_sec_lane1"`
	WriteOnlyWritesPerSecLane4 float64 `json:"write_only_writes_per_sec_lane4"`
	WriteOnlySpeedup           float64 `json:"write_only_speedup"`
}

// TrainScalingStats compares ring write throughput at TrainLength 8
// against the classic piggyback framing (TrainLength 1) on the same
// L=4 lane fanout: the PR-4 tentpole metric, measured with
// RingWriteThroughput's windowed drivers (writes kept outstanding per
// server, plus a read window in the contended rows) so the ring
// pipeline — not client goroutine scheduling — is the bottleneck and
// saturated lanes actually accumulate the queues trains drain. The
// avg_train_len fields report the achieved envelopes per frame
// (Server.RingFrameStats); 1.0 would mean framing amortized nothing.
// The lane_scaling section above deliberately stays at TrainLength 1
// so it remains comparable with the PR 2/3 snapshots.
type TrainScalingStats struct {
	Servers     int     `json:"servers"`
	Objects     int     `json:"objects"`
	Lanes       int     `json:"lanes"`
	WriteWindow int     `json:"write_window"`
	ReadWindow  int     `json:"read_window"`
	Seconds     float64 `json:"seconds"`
	// Contended rows: write drivers plus read drivers on the same
	// objects. The acceptance bar is ContendedSpeedup >= 1.5.
	ContendedWritesPerSecTrain1 float64 `json:"contended_writes_per_sec_train1"`
	ContendedWritesPerSecTrain8 float64 `json:"contended_writes_per_sec_train8"`
	ContendedAvgTrainLen1       float64 `json:"contended_avg_train_len1"`
	ContendedAvgTrainLen8       float64 `json:"contended_avg_train_len8"`
	ContendedSpeedup            float64 `json:"contended_speedup"`
	// WriteOnly rows: write drivers only, no read load.
	WriteOnlyWritesPerSecTrain1 float64 `json:"write_only_writes_per_sec_train1"`
	WriteOnlyWritesPerSecTrain8 float64 `json:"write_only_writes_per_sec_train8"`
	WriteOnlyAvgTrainLen1       float64 `json:"write_only_avg_train_len1"`
	WriteOnlyAvgTrainLen8       float64 `json:"write_only_avg_train_len8"`
	WriteOnlySpeedup            float64 `json:"write_only_speedup"`
}

// HotpathFrame builds the canonical hot-path frame: a 1 KiB pre-write
// with an elided write piggybacked, the steady-state shape of a
// saturated ring link. The wire benchmarks in bench_test.go and the
// JSON report measure this same frame.
func HotpathFrame() wire.Frame {
	pb := wire.Envelope{Kind: wire.KindWrite, Origin: 2, Tag: tag.Tag{TS: 9, ID: 2}, Flags: wire.FlagValueElided}
	return wire.Frame{
		Env:       wire.Envelope{Kind: wire.KindPreWrite, Origin: 1, Tag: tag.Tag{TS: 10, ID: 1}, Value: make([]byte, 1024)},
		Piggyback: &pb,
	}
}

// WireEncodeLoop is the body of BenchmarkWireEncode: the pooled encoder
// (AppendTo into a reused buffer), 0 allocs/op in steady state. Shared
// between `go test -bench` and the JSON report so both measure the same
// thing.
func WireEncodeLoop(b *testing.B) {
	f := HotpathFrame()
	b.ReportAllocs()
	b.SetBytes(int64(f.WireSize()))
	var buf []byte
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = f.AppendTo(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

// WireRoundTripLoop is the body of BenchmarkWireEncodeDecodePooled: the
// full pooled round trip (AppendTo plus the aliasing DecodeFrom into a
// reused Frame), 0 allocs/op in steady state.
func WireRoundTripLoop(b *testing.B) {
	f := HotpathFrame()
	b.ReportAllocs()
	b.SetBytes(int64(f.WireSize()))
	var (
		buf []byte
		dec wire.Frame
	)
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = f.AppendTo(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
		if err := dec.DecodeFrom(buf[4:]); err != nil {
			b.Fatal(err)
		}
	}
}

// PooledValueCycleLoop is the body of BenchmarkWirePooledValueCycle:
// a pooled decode of a one-envelope pre-write carrying valueBytes, then
// RetireValue, 0 allocs/op in steady state.
func PooledValueCycleLoop(valueBytes int) func(b *testing.B) {
	return func(b *testing.B) {
		f := wire.NewFrame(wire.Envelope{Kind: wire.KindPreWrite, Origin: 1, Tag: tag.Tag{TS: 1, ID: 1}, Value: make([]byte, valueBytes)})
		buf, err := f.AppendTo(nil)
		if err != nil {
			b.Fatal(err)
		}
		body := buf[4:]
		b.ReportAllocs()
		b.SetBytes(int64(valueBytes))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got, err := wire.DecodeFrameBodyPooled(body)
			if err != nil {
				b.Fatal(err)
			}
			got.Env.RetireValue()
		}
	}
}

// PendingSetOpsLoop is the body of BenchmarkPendingSet: steady-state
// add/prune cycles at the given depth, 0 allocs/op.
func PendingSetOpsLoop(depth int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		core.BenchPendingSetOps(depth, b.N)
	}
}

// ReadPathFastLoop is the body of BenchmarkReadPathLockFree: the
// snapshot-based serve decision, 0 allocs/op.
func ReadPathFastLoop(b *testing.B) {
	h := core.NewReadBenchHarness()
	b.ReportAllocs()
	if served := h.FastReads(b.N); served != b.N {
		b.Fatalf("fast path served %d/%d", served, b.N)
	}
}

// ReadPathLockedLoop is the body of BenchmarkReadPathLocked: the same
// decision through the shard lock.
func ReadPathLockedLoop(b *testing.B) {
	h := core.NewReadBenchHarness()
	b.ReportAllocs()
	if served := h.LockedReads(b.N); served != b.N {
		b.Fatalf("locked path served %d/%d", served, b.N)
	}
}

// MeasurePendingSet runs the pending-set microbenchmarks.
func MeasurePendingSet() PendingSetStats {
	d1 := testing.Benchmark(PendingSetOpsLoop(1))
	d8 := testing.Benchmark(PendingSetOpsLoop(8))
	d64 := testing.Benchmark(PendingSetOpsLoop(64))
	mx := testing.Benchmark(func(b *testing.B) {
		if core.BenchPendingSetMax(64, b.N) == 0 {
			b.Fatal("maxPending checksum zero")
		}
	})
	st := PendingSetStats{
		AddPruneNsPerOpDepth1:  float64(d1.NsPerOp()),
		AddPruneNsPerOpDepth8:  float64(d8.NsPerOp()),
		AddPruneNsPerOpDepth64: float64(d64.NsPerOp()),
		MaxPendingNsPerOp:      float64(mx.NsPerOp()),
	}
	for _, r := range []testing.BenchmarkResult{d1, d8, d64} {
		if a := r.AllocsPerOp(); a > st.AddPruneAllocsPerOp {
			st.AddPruneAllocsPerOp = a
		}
	}
	return st
}

// MeasureReadPath runs the lock-free vs locked read decision
// microbenchmarks.
func MeasureReadPath() ReadPathStats {
	fast := testing.Benchmark(ReadPathFastLoop)
	locked := testing.Benchmark(ReadPathLockedLoop)
	st := ReadPathStats{
		LockFreeNsPerOp:     float64(fast.NsPerOp()),
		LockFreeAllocsPerOp: fast.AllocsPerOp(),
		LockedNsPerOp:       float64(locked.NsPerOp()),
	}
	if st.LockFreeNsPerOp > 0 {
		st.Speedup = st.LockedNsPerOp / st.LockFreeNsPerOp
	}
	return st
}

// MeasureWireCodec runs the pooled codec microbenchmarks.
func MeasureWireCodec() WireCodecStats {
	enc := testing.Benchmark(WireEncodeLoop)
	rt := testing.Benchmark(WireRoundTripLoop)
	f := HotpathFrame()
	nsPerOp := float64(rt.NsPerOp())
	mbps := 0.0
	if nsPerOp > 0 {
		mbps = float64(f.WireSize()) / nsPerOp * 1e9 / 1e6
	}
	return WireCodecStats{
		EncodeNsPerOp:        float64(enc.NsPerOp()),
		EncodeAllocsPerOp:    enc.AllocsPerOp(),
		RoundTripNsPerOp:     nsPerOp,
		RoundTripAllocsPerOp: rt.AllocsPerOp(),
		MBPerSec:             mbps,
	}
}

// MeasureValuePool runs the pooled value cycle at every gated size.
func MeasureValuePool() ValuePoolStats {
	var st ValuePoolStats
	for _, n := range valuePoolSizes {
		r := testing.Benchmark(PooledValueCycleLoop(n))
		st.Rows = append(st.Rows, ValuePoolRow{
			ValueBytes:  n,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
		})
	}
	return st
}

// TCPEchoThroughput measures round-trip message throughput over a real
// loopback TCP connection: a client floods `msgs` frames at a server
// that echoes every frame back. Returns completed round trips per
// second.
func TCPEchoThroughput(opts tcpnet.Options, msgs, payloadBytes int) (float64, error) {
	srv, err := tcpnet.Listen(1, "127.0.0.1:0", tcpnet.AddressBook{}, opts)
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	cl := tcpnet.NewClient(100, tcpnet.AddressBook{1: srv.Addr()}, opts)
	defer cl.Close()

	go func() {
		for {
			select {
			case in := <-srv.Inbox():
				if err := srv.Send(in.From, in.Frame); err != nil {
					return
				}
			case <-srv.Done():
				return
			}
		}
	}()

	f := wire.NewFrame(wire.Envelope{Kind: wire.KindWriteRequest, ReqID: 1, Value: make([]byte, payloadBytes)})
	recvDone := make(chan error, 1)
	go func() {
		deadline := time.After(2 * time.Minute)
		for i := 0; i < msgs; i++ {
			select {
			case <-cl.Inbox():
			case <-deadline:
				recvDone <- fmt.Errorf("bench: echo stalled after %d/%d messages", i, msgs)
				return
			}
		}
		recvDone <- nil
	}()
	// The sender runs in its own goroutine: if the echo path wedges, the
	// receiver's stall error must win, not a Send blocked on a full
	// pipeline — the deferred Closes then release the sender.
	sendErr := make(chan error, 1)
	start := time.Now()
	go func() {
		for i := 0; i < msgs; i++ {
			if err := cl.Send(1, f); err != nil {
				sendErr <- fmt.Errorf("bench: echo send %d: %w", i, err)
				return
			}
		}
		sendErr <- nil
	}()
	if err := <-recvDone; err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	if err := <-sendErr; err != nil {
		return 0, err
	}
	return float64(msgs) / elapsed.Seconds(), nil
}

// MeasureTCPEcho compares the coalescing writer with the
// flush-per-frame baseline.
func MeasureTCPEcho(msgs, payloadBytes int) (TCPEchoStats, error) {
	coalesced, err := TCPEchoThroughput(tcpnet.Options{}, msgs, payloadBytes)
	if err != nil {
		return TCPEchoStats{}, err
	}
	unbatched, err := TCPEchoThroughput(tcpnet.Options{DisableCoalescing: true}, msgs, payloadBytes)
	if err != nil {
		return TCPEchoStats{}, err
	}
	st := TCPEchoStats{
		Messages:            msgs,
		PayloadBytes:        payloadBytes,
		CoalescedMsgsPerSec: coalesced,
		UnbatchedMsgsPerSec: unbatched,
	}
	if unbatched > 0 {
		st.Speedup = coalesced / unbatched
	}
	return st, nil
}

// MultiObjectThroughput drives independent closed-loop read/write load
// over `objects` registers on one async cluster and returns aggregate
// reads/s and writes/s. Each object gets one writer and two readers,
// spread over the servers round-robin.
func MultiObjectThroughput(ctx context.Context, servers, objects int, duration time.Duration, mod func(*core.Config)) (readsPerSec, writesPerSec float64, err error) {
	cluster, err := NewAsyncCluster(servers, mod)
	if err != nil {
		return 0, 0, err
	}
	defer cluster.Close()

	var (
		reads, writes atomic.Uint64
		wg            sync.WaitGroup
	)
	runCtx, cancel := context.WithTimeout(ctx, duration)
	defer cancel()
	value := make([]byte, 1024)
	for obj := 0; obj < objects; obj++ {
		pin := cluster.Members[obj%len(cluster.Members)]
		wcl, err := cluster.NewClient(pin)
		if err != nil {
			return 0, 0, err
		}
		defer wcl.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for runCtx.Err() == nil {
				if _, err := wcl.Write(runCtx, wire.ObjectID(obj), value); err == nil {
					writes.Add(1)
				}
			}
		}()
		for r := 0; r < 2; r++ {
			rcl, err := cluster.NewClient(pin)
			if err != nil {
				return 0, 0, err
			}
			defer rcl.Close()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for runCtx.Err() == nil {
					if _, _, err := rcl.Read(runCtx, wire.ObjectID(obj)); err == nil {
						reads.Add(1)
					}
				}
			}()
		}
	}
	start := time.Now()
	<-runCtx.Done()
	elapsed := time.Since(start).Seconds()
	cancel()
	wg.Wait()
	return float64(reads.Load()) / elapsed, float64(writes.Load()) / elapsed, nil
}

// MultiObjectWriteThroughput drives one closed-loop writer per object,
// plus readersPerObject closed-loop readers on the same object, over a
// cluster configured with the given lane fanout and train length, and
// returns aggregate completed writes/s. Writers pin to servers
// round-robin, so every server both initiates and forwards. With
// readers the workload is the contended shape of the lane- and
// train-scaling metrics; with zero readers it isolates the bare ring
// write path. trainLen 1 is the classic piggyback framing.
func MultiObjectWriteThroughput(ctx context.Context, servers, objects, lanes, trainLen, readersPerObject int, duration time.Duration) (float64, error) {
	cluster, err := NewAsyncCluster(servers, func(c *core.Config) {
		c.WriteLanes = lanes
		c.TrainLength = trainLen
	})
	if err != nil {
		return 0, err
	}
	defer cluster.Close()

	var (
		writes atomic.Uint64
		wg     sync.WaitGroup
	)
	runCtx, cancel := context.WithTimeout(ctx, duration)
	defer cancel()
	value := make([]byte, 1024)
	for obj := 0; obj < objects; obj++ {
		pin := cluster.Members[obj%len(cluster.Members)]
		cl, err := cluster.NewClient(pin)
		if err != nil {
			return 0, err
		}
		defer cl.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for runCtx.Err() == nil {
				if _, err := cl.Write(runCtx, wire.ObjectID(obj), value); err == nil {
					writes.Add(1)
				}
			}
		}()
		for r := 0; r < readersPerObject; r++ {
			rcl, err := cluster.NewClient(pin)
			if err != nil {
				return 0, err
			}
			defer rcl.Close()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for runCtx.Err() == nil {
					_, _, _ = rcl.Read(runCtx, wire.ObjectID(obj))
				}
			}()
		}
	}
	start := time.Now()
	<-runCtx.Done()
	elapsed := time.Since(start).Seconds()
	cancel()
	wg.Wait()
	return float64(writes.Load()) / elapsed, nil
}

// MeasureLaneScaling compares the lane-sharded write path (4 lanes)
// against the single-loop baseline on the same 8-object workloads,
// contended (2 readers per object) and write-only. Trains are pinned to
// 1 (classic framing) so the section stays comparable with the PR 2/3
// snapshots; MeasureTrainScaling owns the train dimension.
func MeasureLaneScaling(ctx context.Context, duration time.Duration) (LaneScalingStats, error) {
	const servers, objects = 3, 8
	st := LaneScalingStats{
		Servers: servers,
		Objects: objects,
		Seconds: duration.Seconds(),
	}
	var err error
	if st.ContendedWritesPerSecLane1, err = MultiObjectWriteThroughput(ctx, servers, objects, 1, 1, 2, duration); err != nil {
		return st, err
	}
	if st.ContendedWritesPerSecLane4, err = MultiObjectWriteThroughput(ctx, servers, objects, 4, 1, 2, duration); err != nil {
		return st, err
	}
	if st.WriteOnlyWritesPerSecLane1, err = MultiObjectWriteThroughput(ctx, servers, objects, 1, 1, 0, duration); err != nil {
		return st, err
	}
	if st.WriteOnlyWritesPerSecLane4, err = MultiObjectWriteThroughput(ctx, servers, objects, 4, 1, 0, duration); err != nil {
		return st, err
	}
	if st.ContendedWritesPerSecLane1 > 0 {
		st.ContendedSpeedup = st.ContendedWritesPerSecLane4 / st.ContendedWritesPerSecLane1
	}
	if st.WriteOnlyWritesPerSecLane1 > 0 {
		st.WriteOnlySpeedup = st.WriteOnlyWritesPerSecLane4 / st.WriteOnlyWritesPerSecLane1
	}
	return st, nil
}

// MeasureTrainScaling compares TrainLength 8 against the classic
// piggyback framing (TrainLength 1) at the default 4-lane fanout:
// 256 objects, 128 writes kept outstanding per server (deep enough
// queues for real trains to form), with a 32-read window per server in
// the contended rows.
func MeasureTrainScaling(duration time.Duration) (TrainScalingStats, error) {
	const servers, objects, lanes, writeWin, readWin = 3, 256, 4, 128, 32
	st := TrainScalingStats{
		Servers:     servers,
		Objects:     objects,
		Lanes:       lanes,
		WriteWindow: writeWin,
		ReadWindow:  readWin,
		Seconds:     duration.Seconds(),
	}
	run := func(trainLen, readWindow int) (RingLoadResult, error) {
		return RingWriteThroughput(servers, objects, lanes, trainLen, writeWin, readWindow, duration)
	}
	res, err := run(1, readWin)
	if err != nil {
		return st, err
	}
	st.ContendedWritesPerSecTrain1, st.ContendedAvgTrainLen1 = res.WritesPerSec, res.AvgTrainLen
	if res, err = run(8, readWin); err != nil {
		return st, err
	}
	st.ContendedWritesPerSecTrain8, st.ContendedAvgTrainLen8 = res.WritesPerSec, res.AvgTrainLen
	if res, err = run(1, 0); err != nil {
		return st, err
	}
	st.WriteOnlyWritesPerSecTrain1, st.WriteOnlyAvgTrainLen1 = res.WritesPerSec, res.AvgTrainLen
	if res, err = run(8, 0); err != nil {
		return st, err
	}
	st.WriteOnlyWritesPerSecTrain8, st.WriteOnlyAvgTrainLen8 = res.WritesPerSec, res.AvgTrainLen
	if st.ContendedWritesPerSecTrain1 > 0 {
		st.ContendedSpeedup = st.ContendedWritesPerSecTrain8 / st.ContendedWritesPerSecTrain1
	}
	if st.WriteOnlyWritesPerSecTrain1 > 0 {
		st.WriteOnlySpeedup = st.WriteOnlyWritesPerSecTrain8 / st.WriteOnlyWritesPerSecTrain1
	}
	return st, nil
}

// MeasureMultiObject compares the sharded read path with the inline
// baseline on the same multi-object workload.
func MeasureMultiObject(ctx context.Context, duration time.Duration) (MultiObjectStats, error) {
	const servers, objects = 3, 8
	shardedR, shardedW, err := MultiObjectThroughput(ctx, servers, objects, duration, nil)
	if err != nil {
		return MultiObjectStats{}, err
	}
	inlineR, _, err := MultiObjectThroughput(ctx, servers, objects, duration, func(c *core.Config) {
		c.ReadConcurrency = -1
		c.WriteLanes = -1
		// Keep the baseline the pre-sharding server it documents: locked
		// inline reads, no snapshot fast path.
		c.DisableReadSnapshots = true
	})
	if err != nil {
		return MultiObjectStats{}, err
	}
	st := MultiObjectStats{
		Servers:             servers,
		Objects:             objects,
		Seconds:             duration.Seconds(),
		ShardedReadsPerSec:  shardedR,
		ShardedWritesPerSec: shardedW,
		InlineReadsPerSec:   inlineR,
	}
	if inlineR > 0 {
		st.ReadSpeedup = shardedR / inlineR
	}
	return st, nil
}

// RunHotpath runs every hot-path benchmark and assembles the report.
func RunHotpath(ctx context.Context, echoMsgs int, multiObjDuration time.Duration) (HotpathReport, error) {
	rep := HotpathReport{
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Wire:       MeasureWireCodec(),
		ValuePool:  MeasureValuePool(),
		PendingSet: MeasurePendingSet(),
		ReadPath:   MeasureReadPath(),
	}
	eg, err := MeasureEgress()
	if err != nil {
		return rep, err
	}
	rep.Egress = eg
	// 256-byte payloads sit between the ring's tiny elided-write frames
	// and full 1 KiB values; at this size the echo is syscall-bound, so
	// it isolates what coalescing actually buys. (At 1 KiB loopback
	// memory bandwidth starts to dominate and the comparison gets noisy.)
	echo, err := MeasureTCPEcho(echoMsgs, 256)
	if err != nil {
		return rep, err
	}
	rep.TCPEcho = echo
	w, err := MeasureWAL(walSweepRecords, walSweepTrainLen, walSweepValue)
	if err != nil {
		return rep, err
	}
	rep.WAL = w
	// The fleet comparisons run before the closed-loop sections below:
	// those spawn thousands of client goroutines whose teardown debris
	// (stack growth, pacer state, lingering timers) skews anything
	// measured after them far more than the reverse direction.
	settleBetweenSections()
	ack, err := MeasureAckPath(ackPathFleetClients, ackPathOfferedRate, multiObjDuration)
	if err != nil {
		return rep, err
	}
	rep.AckPath = ack
	ol, err := MeasureOpenLoop(ackPathFleetClients, []float64{5000, 10000, 20000, 40000}, multiObjDuration)
	if err != nil {
		return rep, err
	}
	rep.OpenLoop = ol
	settleBetweenSections()
	fed, err := MeasureFederation(multiObjDuration)
	if err != nil {
		return rep, err
	}
	rep.Federation = fed
	settleBetweenSections()
	mo, err := MeasureMultiObject(ctx, multiObjDuration)
	if err != nil {
		return rep, err
	}
	rep.MultiObject = mo
	settleBetweenSections()
	lanes, err := MeasureLaneScaling(ctx, multiObjDuration)
	if err != nil {
		return rep, err
	}
	rep.LaneScaling = lanes
	settleBetweenSections()
	trains, err := MeasureTrainScaling(multiObjDuration)
	if err != nil {
		return rep, err
	}
	rep.TrainScaling = trains
	return rep, nil
}

// settleBetweenSections lets the previous section's teardown finish
// (drained goroutines exiting, timers firing) and resets the heap so the
// next section does not inherit its GC debt.
func settleBetweenSections() {
	time.Sleep(300 * time.Millisecond)
	runtime.GC()
}

// WriteJSON writes the report to path, indented for diff-friendliness.
func (r HotpathReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
