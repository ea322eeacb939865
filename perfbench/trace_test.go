package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// testWorkload is small enough for a unit test and still exercises
// reads, writes, lanes and trains.
var testWorkload = workload{name: "test", readFrac: 0.5, valueSize: 64, objects: 64, rate: 2000, window: 16}

// runShort sets a ring up (traced when rec is non-nil), runs one second
// of closed-loop load — enough for trains to form — and returns the
// counter deltas over it; the history must pass the gate.
func runShort(t *testing.T, rec *recorder) core.CounterSnapshot {
	t.Helper()
	w := testWorkload
	cl, g, err := setUp(&w, 1, "", rec)
	if err != nil {
		t.Fatal(err)
	}
	c0 := cl.counters()
	if rec != nil {
		rec.on.Store(true)
	}
	end := now() + int64(time.Second)
	err = g.eachConn(func(c *genConn) error { return c.runClosedLoop(phaseSat, w.window, end, nil, false) })
	drained := g.drain(drainTimeout)
	if rec != nil {
		rec.on.Store(false)
	}
	c1 := cl.counters()
	g.close()
	if err := g.receiveErrors(); err != nil {
		t.Fatal(err)
	}
	ops := g.collect()
	cl.stop(false)
	if err != nil || !drained {
		t.Fatalf("load: %v (drained %v)", err, drained)
	}
	if err := gate(ops); err != nil {
		t.Fatal(err)
	}
	if err := checkCounters(c1); err != nil {
		t.Fatal(err)
	}
	return deltaCounters(c0, c1)
}

// TestTracedServerTakesWrappedPaths shows that a server built over the
// tracing wrapper routes every boundary through it — the demux RouteFunc
// (including reads answered on the delivering goroutine), SendLane for
// ring frames and TrySend for the ack fast path — and that tracing does
// not change the path mix: traced and untraced runs agree on the ack
// fast-path share and the achieved train length.
func TestTracedServerTakesWrappedPaths(t *testing.T) {
	plain := runShort(t, nil)
	rec, err := newRecorder(1<<18, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rec.release()
	traced := runShort(t, rec)

	for ev, name := range map[uint8]string{evRoute: "route", evSendLane: "SendLane", evTrySend: "TrySend"} {
		if rec.counts[ev].calls.Load() == 0 {
			t.Errorf("no %s calls went through the wrapper", name)
		}
	}
	var demuxReads, preWrites int
	for _, s := range rec.recorded() {
		if s.ev == evRoute && s.kind == wire.KindReadRequest && s.flag {
			demuxReads++
		}
		if s.ev == evSendLane && s.kind == wire.KindPreWrite {
			preWrites++
		}
	}
	if demuxReads == 0 || preWrites == 0 {
		t.Errorf("spans: %d reads served in the demux, %d pre-writes sent", demuxReads, preWrites)
	}

	t.Logf("ack fast share %.3f/%.3f, envelopes per frame %.3f/%.3f", plain.AckFastPathShare(), traced.AckFastPathShare(),
		ratio(float64(plain.RingEnvelopes), float64(plain.RingFrames)), ratio(float64(traced.RingEnvelopes), float64(traced.RingFrames)))
	if p, q := plain.AckFastPathShare(), traced.AckFastPathShare(); p-q > 0.05 || q-p > 0.05 {
		t.Errorf("ack fast-path share: untraced %.3f, traced %.3f", p, q)
	}
	epf := func(c core.CounterSnapshot) float64 { return ratio(float64(c.RingEnvelopes), float64(c.RingFrames)) }
	if p, q := epf(plain), epf(traced); q < p*0.85 || q > p*1.15 {
		t.Errorf("envelopes per frame: untraced %.3f, traced %.3f", p, q)
	}
}

// TestRunReportsBenchmarkMetrics runs the whole benchmark on the test
// workload, traced and untraced, with and without a WAL, and checks that
// every metric BENCHMARK.json declares is reported with its unit.
func TestRunReportsBenchmarkMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full benchmark four times")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var bench struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, wal := range []bool{false, true} {
		for _, trace := range []bool{false, true} {
			w := testWorkload
			w.wal = wal
			res, err := run(&w, &options{seed: 3, seconds: 2, trace: trace, dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if res.gateErr != nil || res.failed != 0 || res.attempted == 0 {
				t.Fatalf("wal=%v trace=%v: gate %v, %d of %d failed", wal, trace, res.gateErr, res.failed, res.attempted)
			}
			got := make(map[string]string)
			for _, m := range res.metrics {
				got[m.name] = m.unit
			}
			want := bench.EndToEnd
			if trace {
				want = bench.PerLayer
			}
			if len(got) != len(want) {
				t.Errorf("wal=%v trace=%v: %d metrics reported, %d declared (absent: %v)", wal, trace, len(got), len(want), res.absent)
			}
			for _, d := range want {
				if u, ok := got[d.Name]; !ok || u != d.Unit {
					t.Errorf("wal=%v trace=%v: metric %s reported as %q, declared %q", wal, trace, d.Name, u, d.Unit)
				}
			}
		}
	}
}
