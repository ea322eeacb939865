package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"repro/internal/wire"
)

// Set-up and restart are timed several times per run and reported as
// medians: each repeats at least minRepeats times and until repeatBudget
// has been spent, at most maxRepeats times.
const (
	minRepeats   = 3
	maxRepeats   = 20
	repeatBudget = int64(time.Second)
)

func enoughRepeats(done []int64) bool {
	var spent int64
	for _, ns := range done {
		spent += ns
	}
	return len(done) >= maxRepeats || (len(done) >= minRepeats && spent >= repeatBudget)
}

// farFuture is a deadline no phase reaches.
const farFuture = int64(1) << 62

// conns is the generator's connection count: at most one per CPU, each
// pinned to a different server.
func conns() int { return min(runtime.NumCPU(), nServers) }

// rig is the running system under test: the ring, the generator's
// sessions and the library client. close stops whatever still runs.
type rig struct {
	cl  *cluster
	g   *gen
	lib *libClient
}

func (r *rig) close() {
	if r.lib != nil {
		r.lib.stop()
		r.lib = nil
	}
	if r.g != nil {
		r.g.close()
		r.g = nil
	}
	if r.cl != nil {
		r.cl.stop(false)
		r.cl = nil
	}
}

// run executes one workload run and returns its metrics and gate verdict.
// An error means the run could not be carried out (nothing to report);
// a correctness failure is res.gateErr.
func run(w *workload, o *options) (*result, error) {
	root := filepath.Join(o.dir, w.name)
	if err := os.RemoveAll(root); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	encBase := wire.EncodedFramesLive()
	measured := time.Duration(o.seconds) * time.Second
	var rec *recorder
	if o.trace {
		var err error
		if rec, err = newTracedRecorder(w, measured); err != nil {
			return nil, err
		}
		defer rec.release()
	}
	r := &rig{}
	defer r.close()

	// Set-up: start the ring, open the generator's sessions and write
	// every object once. End-to-end runs repeat it and keep the last.
	var setupNs []int64
	walRoot := ""
	for len(setupNs) == 0 || (!o.trace && !enoughRepeats(setupNs)) {
		r.close()
		runtime.GC()
		debug.FreeOSMemory()
		if w.wal {
			if walRoot != "" {
				if err := os.RemoveAll(walRoot); err != nil {
					return nil, err
				}
			}
			walRoot = filepath.Join(root, fmt.Sprintf("wal%d", len(setupNs)))
		}
		t0 := now()
		cl, g, err := setUp(w, o.seed, walRoot, rec)
		if err != nil {
			return nil, err
		}
		setupNs = append(setupNs, now()-t0)
		r.cl, r.g = cl, g
	}

	lib, err := startLibClient(r.cl, w)
	if err != nil {
		return nil, err
	}
	r.lib = lib
	runtime.GC() // every run starts measuring from the same collector state
	afterSetUp := readProc()
	if err := openPhase(r.g, phaseWarm, w.rate, warmup); err != nil {
		return nil, err
	}
	r.g.drain(drainTimeout)

	res := &result{}
	var tr *tracedPhases
	var fixed procDelta
	var satStart, satEnd int64
	phases := []uint8{phaseFixed, phaseSat}
	if o.trace {
		phases = []uint8{phaseCalm, phaseFixed}
		if tr, err = runTracedPhases(r.cl, r.g, w, rec, measured); err != nil {
			return nil, err
		}
	} else {
		p0 := readProc()
		err := openPhase(r.g, phaseFixed, w.rate, measured*2/3)
		r.g.drain(drainTimeout)
		fixed = procDelta{p0, readProc()}
		if err != nil {
			return nil, err
		}
	}
	libRes := r.lib.stop()
	gateErrs := []error{r.lib.err}
	r.lib = nil
	if !o.trace {
		runtime.GC()
		satStart = now()
		satEnd = satStart + int64(measured/3)
		err := r.g.eachConn(func(c *genConn) error { return c.runClosedLoop(phaseSat, w.window, satEnd, nil, false) })
		r.g.drain(drainTimeout)
		if err != nil {
			return nil, err
		}
	}
	gateErrs = append(gateErrs, checkCounters(r.cl.counters()))

	// Recovery: kill every server, then restart the ring on its WAL
	// directories (recovery.go).
	r.g.close()
	gateErrs = append(gateErrs, r.g.receiveErrors())
	ops := r.g.collect()
	r.g = nil
	r.cl.stop(true)
	r.cl = nil
	rc, err := measureRecovery(w, walRoot, o.seed)
	if err != nil {
		return nil, err
	}
	ops = append(ops, rc.after...)
	gateErrs = append(gateErrs, rc.gateErrs...)
	gateErrs = append(gateErrs, waitEncodedBaseline(encBase))
	gateErrs = append(gateErrs, gate(ops))
	res.gateErr = errors.Join(gateErrs...)

	for i := range ops {
		if slices.Contains(phases, ops[i].phase) {
			res.attempted++
			if !ops[i].complete() {
				res.failed++
			}
		}
	}
	if o.trace {
		lm := layerInputs{w: w, ops: ops, rec: rec, tr: tr, lib: libRes,
			replayed: rc.replayed, replayNs: rc.openNs, recoveryNs: rc.ns, stateDir: root}
		res.metrics, res.absent = lm.metrics()
	} else {
		res.metrics, res.info, res.absent = endToEnd(ops, afterSetUp, fixed, satStart, satEnd, setupNs, rc.ns)
	}
	return res, nil
}

// setUp starts the ring, dials one generator connection per pinned
// server and writes every object once (closed loop, the workload's
// window per connection).
func setUp(w *workload, seed uint64, walRoot string, rec *recorder) (*cluster, *gen, error) {
	cl, err := startCluster(nServers, walRoot, rec)
	if err != nil {
		return nil, nil, err
	}
	pins := make([]int, conns())
	for i := range pins {
		pins[i] = i
	}
	g, err := cl.dial(pins, w, seed, genClientID)
	if err != nil {
		cl.stop(false)
		return nil, nil, err
	}
	err = g.eachConn(func(c *genConn) error {
		var objs []int
		for k := c.idx; k < w.objects; k += len(pins) {
			objs = append(objs, k)
		}
		return c.runClosedLoop(phaseSeed, w.window, farFuture, objs, true)
	})
	if err == nil && !g.drain(drainTimeout) {
		err = fmt.Errorf("seeding: %w", errNotDrained)
	}
	if err != nil {
		g.close()
		cl.stop(false)
		return nil, nil, err
	}
	return cl, g, nil
}

// openPhase runs the open-loop schedule on every connection: the rate is
// split evenly and the connections' schedules are interleaved.
func openPhase(g *gen, phase uint8, rate float64, d time.Duration) error {
	n := len(g.conns)
	per := rate / float64(n)
	start := now() + int64(time.Millisecond)
	end := start + int64(d)
	return g.eachConn(func(c *genConn) error {
		offset := int64(1e9 / per * float64(c.idx) / float64(n))
		return c.runOpenLoop(phase, per, offset, start, end)
	})
}

// Each latency percentile and the saturation rate are computed over
// consecutive windows of a phase and reported as the median across
// windows, so one burst of interference from outside the benchmark
// moves one window, not the reported value.
const (
	satWindow = int64(time.Second)
	// maxWindows caps how many windows a latency phase is cut into;
	// minWindowSamples keeps each window's p99 at least ten samples
	// from its maximum. Sparse sample sets get fewer, longer windows.
	maxWindows       = 20
	minWindowSamples = 1000
)

// windowedLatency cuts the samples, ordered by scheduled send instant,
// into up to maxWindows consecutive windows of equal count and returns
// the median across windows of each window's exact p50 and p99, with the
// total sample count.
func windowedLatency(at, lat []int64) (p50, p99 float64, n int) {
	n = len(at)
	if n == 0 {
		return 0, 0, 0
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return int(at[a] - at[b]) })
	k := min(max(n/minWindowSamples, 1), maxWindows)
	var p50s, p99s []float64
	win := make([]int64, 0, n/k+1)
	for j := 0; j < k; j++ {
		win = win[:0]
		for _, i := range order[j*n/k : (j+1)*n/k] {
			win = append(win, lat[i])
		}
		d := summarize(win)
		p50s, p99s = append(p50s, us(d.p50)), append(p99s, us(d.p99))
	}
	return median(p50s), median(p99s), n
}

// procDelta is a pair of process-counter readings around a phase.
type procDelta struct{ p0, p1 procSample }

// endToEnd computes the end-to-end metrics from the operation history.
func endToEnd(ops []histOp, afterSetUp procSample, fixed procDelta, satStart, satEnd int64, setupNs, recoveryNs []int64) (ms, info []metric, absent []string) {
	var rAt, rLat, wAt, wLat []int64
	var fixedDone, satDone int
	satWin := make([]int, (satEnd-satStart)/satWindow)
	for i := range ops {
		o := &ops[i]
		if !o.complete() {
			continue
		}
		switch o.phase {
		case phaseFixed:
			fixedDone++
			if o.write {
				wAt, wLat = append(wAt, o.sched), append(wLat, o.end-o.sched)
			} else {
				rAt, rLat = append(rAt, o.sched), append(rLat, o.end-o.sched)
			}
		case phaseSat:
			if k := (o.end - satStart) / satWindow; k < int64(len(satWin)) {
				satWin[k]++
				satDone++
			}
		}
	}
	rates := make([]float64, len(satWin))
	for i, c := range satWin {
		rates[i] = float64(c) / (float64(satWindow) / 1e9)
	}
	r50, r99, rn := windowedLatency(rAt, rLat)
	w50, w99, wn := windowedLatency(wAt, wLat)
	ms = []metric{{"sat_ops_per_s", median(rates), "1/s", satDone}}
	// Latencies and the restart time are printed but not part of the
	// result line: on a shared virtual machine they follow the host's
	// scheduling (see README.md). The traced run reports them as
	// unbounded e2e.* metrics.
	info = []metric{
		{"read_p50_us", r50, "us", rn},
		{"read_p99_us", r99, "us", rn},
		{"write_p50_us", w50, "us", wn},
		{"write_p99_us", w99, "us", wn},
	}
	if fixed.p0.rusageOK && fixed.p1.rusageOK {
		ms = append(ms, metric{"cpu_us_per_op", ratio(us(fixed.p1.cpuNs-fixed.p0.cpuNs), float64(fixedDone)), "us", fixedDone})
		// Peak resident memory through set-up and the fixed-rate phase,
		// before the saturation phase and the gate's own analysis. It
		// is the high-water mark of a collected heap, so it moves with
		// collector timing; the bounded memory figure is the live heap.
		info = append(info, metric{"peak_rss_mb", float64(fixed.p1.maxRSSKB) / 1024, "MB", -1})
	} else {
		absent = append(absent, "cpu_us_per_op, peak_rss_mb: getrusage failed")
	}
	if afterSetUp.rtOK {
		// The ring's retained state: live heap after set-up and a full
		// collection — per-object state times objects, plus fixed costs.
		ms = append(ms, metric{"heap_live_mb", float64(afterSetUp.heapLive) / (1 << 20), "MB", -1})
	} else {
		absent = append(absent, "heap_live_mb: runtime/metrics unsupported")
	}
	ms = append(ms, metric{"setup_s", float64(summarize(setupNs).p50) / 1e9, "s", len(setupNs)})
	info = append(info, metric{"recovery_s", float64(summarize(recoveryNs).p50) / 1e9, "s", len(recoveryNs)})
	return ms, info, absent
}
