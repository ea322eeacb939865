package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/tag"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Per-layer metrics (--trace 1). The run keeps the end-to-end layout —
// same ring, same generator, same library client — and runs its
// fixed-rate phase twice: first with the recorder off (phaseCalm), then
// on (phaseFixed). Spans come from the tracedEndpoint wrapped around
// each server's tcpnet endpoint; counters from core.CounterSnapshot and
// WALStats deltas over the traced phase; process counters from proc.go.

// maxSpans caps the span array (about 64 B per span).
const maxSpans = 1 << 20

// newTracedRecorder sizes the span array and picks the object sampling
// divisor so the traced phase fits: about 3 spans per read and 20 per
// write (2n ring hops plus request and ack) at the workload's rate.
func newTracedRecorder(w *workload, measured time.Duration) (*recorder, error) {
	perOp := 3*w.readFrac + 20*(1-w.readFrac)
	want := w.rate * perOp * (measured * 2 / 3).Seconds() * 1.5
	div := uint64(1)
	for want/float64(div) > maxSpans {
		div *= 2
	}
	return newRecorder(maxSpans, div)
}

// tracedPhases is what runTracedPhases measured around the two phases.
type tracedPhases struct {
	calmCPU, fixedCPU int64 // process CPU ns over each phase; 0 if unknown
	p0, p1            procSample
	c0, c1            core.CounterSnapshot
	w0, w1            wal.Stats
	start, end        int64
	sendNs            []int64
}

func runTracedPhases(cl *cluster, g *gen, w *workload, rec *recorder, measured time.Duration) (*tracedPhases, error) {
	tr := &tracedPhases{}
	pc0 := readProc()
	if err := openPhase(g, phaseCalm, w.rate, measured/3); err != nil {
		return nil, err
	}
	g.drain(drainTimeout)
	pc1 := readProc()
	for _, c := range g.conns {
		c.sendNs = make([]int64, 0, 1<<16)
	}
	tr.c0, tr.w0, tr.p0 = cl.counters(), cl.walStats(), readProc()
	rec.on.Store(true)
	tr.start = now()
	err := openPhase(g, phaseFixed, w.rate, measured*2/3)
	g.drain(drainTimeout)
	rec.on.Store(false)
	tr.end = now()
	tr.p1, tr.c1, tr.w1 = readProc(), cl.counters(), cl.walStats()
	if err != nil {
		return nil, err
	}
	for _, c := range g.conns {
		tr.sendNs = append(tr.sendNs, c.sendNs...)
		c.sendNs = nil
	}
	if pc0.rusageOK && pc1.rusageOK && tr.p0.rusageOK && tr.p1.rusageOK {
		tr.calmCPU = pc1.cpuNs - pc0.cpuNs
		tr.fixedCPU = tr.p1.cpuNs - tr.p0.cpuNs
	}
	return tr, nil
}

// layerInputs is everything the per-layer metrics are computed from.
// The traced cluster must be stopped: its goroutines have exited, so
// every span is final.
type layerInputs struct {
	w          *workload
	ops        []histOp
	rec        *recorder
	tr         *tracedPhases
	lib        libResult
	replayed   uint64
	replayNs   int64
	recoveryNs []int64
	stateDir   string
}

type reqKey struct {
	client wire.ProcessID
	req    uint64
}

type ringKey struct {
	origin wire.ProcessID
	obj    uint32
	tag    tag.Tag
}

type srvObj struct {
	srv uint8
	obj uint32
}

// spanIndex groups the recorded spans by operation identifier.
type spanIndex struct {
	route   map[reqKey]*span   // client request routed into core
	acks    map[reqKey][]*span // ack sends (TrySend, then the queued Send)
	ringIn  map[ringKey][]*span
	ringOut map[ringKey][]*span
	// writeIn lists, per server and object, when write-phase envelopes
	// were routed in: a read dispatched to a lane that waits across one
	// of these was parked behind the pre-write barrier.
	writeIn map[srvObj][]int64
	laneNs  []int64 // one per SendLane call
}

func indexSpans(spans []span) *spanIndex {
	x := &spanIndex{
		route:   make(map[reqKey]*span),
		acks:    make(map[reqKey][]*span),
		ringIn:  make(map[ringKey][]*span),
		ringOut: make(map[ringKey][]*span),
		writeIn: make(map[srvObj][]int64),
	}
	type call struct {
		srv    uint8
		t0, t1 int64
	}
	laneCalls := make(map[call]bool)
	for i := range spans {
		s := &spans[i]
		switch s.kind {
		case wire.KindReadRequest, wire.KindWriteRequest:
			if s.ev == evRoute {
				x.route[reqKey{s.peer, s.req}] = s
			}
		case wire.KindReadAck, wire.KindWriteAck:
			if s.ev == evSend || s.ev == evTrySend {
				k := reqKey{s.peer, s.req}
				x.acks[k] = append(x.acks[k], s)
			}
		case wire.KindPreWrite, wire.KindWrite:
			k := ringKey{s.origin, s.obj, s.tag}
			switch s.ev {
			case evRoute:
				x.ringIn[k] = append(x.ringIn[k], s)
				if s.kind == wire.KindWrite {
					so := srvObj{s.srv, s.obj}
					x.writeIn[so] = append(x.writeIn[so], s.t0)
				}
			case evSendLane:
				x.ringOut[k] = append(x.ringOut[k], s)
				if c := (call{s.srv, s.t0, s.t1}); !laneCalls[c] {
					laneCalls[c] = true
					x.laneNs = append(x.laneNs, s.t1-s.t0)
				}
			}
		}
	}
	for _, ts := range x.writeIn {
		slices.Sort(ts)
	}
	byT0 := func(a, b *span) int { return int(a.t0 - b.t0) }
	for _, ss := range x.ringIn {
		slices.SortFunc(ss, byT0)
	}
	for _, ss := range x.ringOut {
		slices.SortFunc(ss, byT0)
	}
	for _, ss := range x.acks {
		slices.SortFunc(ss, byT0)
	}
	return x
}

// ackSent returns the successful ack send for an operation: the fast
// path's accepted TrySend, or else the queued Send that followed it.
func (x *spanIndex) ackSent(k reqKey) *span {
	for _, a := range x.acks[k] {
		if a.flag {
			return a
		}
	}
	return nil
}

// firstAfter returns the first span in ss (sorted by t0) on server srv
// of the given kind (0: any) starting at or after t.
func firstAfter(ss []*span, srv uint8, kind wire.Kind, t int64) *span {
	for _, s := range ss {
		if s.srv == srv && s.t0 >= t && (kind == 0 || s.kind == kind) {
			return s
		}
	}
	return nil
}

func (in *layerInputs) metrics() ([]metric, []string) {
	x := indexSpans(in.rec.recorded())
	tr := in.tr
	var ms []metric
	var absent []string
	add := func(name string, v float64, unit string, n int) {
		ms = append(ms, metric{name, v, unit, n})
	}
	addDist := func(prefix, unit string, d dist, p99 bool) {
		conv := us
		if unit == "ns" {
			conv = func(ns int64) float64 { return float64(ns) }
		}
		add(prefix+"_p50", conv(d.p50), unit, d.n)
		if p99 {
			add(prefix+"_p99", conv(d.p99), unit, d.n)
		}
	}

	// End-to-end latencies of the untraced phase. They vary with the
	// host's scheduling far more than any bound would allow, so the
	// benchmark reports them here, unbounded, beside the stages that
	// explain them.
	var rAt, rLat, wAt, wLat []int64
	for i := range in.ops {
		if o := &in.ops[i]; o.phase == phaseCalm && o.complete() {
			if o.write {
				wAt, wLat = append(wAt, o.sched), append(wLat, o.end-o.sched)
			} else {
				rAt, rLat = append(rAt, o.sched), append(rLat, o.end-o.sched)
			}
		}
	}
	r50, r99, rn := windowedLatency(rAt, rLat)
	w50, w99, wn := windowedLatency(wAt, wLat)
	add("e2e.read_p50_us", r50, "us", rn)
	add("e2e.read_p99_us", r99, "us", rn)
	add("e2e.write_p50_us", w50, "us", wn)
	add("e2e.write_p99_us", w99, "us", wn)
	add("e2e.recovery_s", float64(summarize(in.recoveryNs).p50)/1e9, "s", len(in.recoveryNs))

	// Per-operation stage samples, over traced-phase operations whose
	// object was sampled.
	var (
		routeSelf, parkWait, originPlan, ackAfterRing []int64
		reqTransit, ackTransit, lag, ackSendNs        []int64
		routeToAck, readE2E, writeE2E                 []int64
		reads, parked, done, writesDone, calmDone     int
	)
	for i := range in.ops {
		o := &in.ops[i]
		if o.phase == phaseCalm && o.complete() {
			calmDone++
		}
		if o.phase != phaseFixed || !o.complete() {
			continue
		}
		done++
		lag = append(lag, o.start-o.sched)
		if o.write {
			writesDone++
			writeE2E = append(writeE2E, o.end-o.sched)
		} else {
			readE2E = append(readE2E, o.end-o.sched)
		}
		k := reqKey{genClientID + wire.ProcessID(o.conn), uint64(o.seq) + 1}
		r := x.route[k]
		if r == nil {
			continue // object not sampled
		}
		reqTransit = append(reqTransit, r.t0-o.start)
		a := x.ackSent(k)
		if a != nil {
			ackTransit = append(ackTransit, o.end-a.t0)
		}
		for _, s := range x.acks[k] {
			ackSendNs = append(ackSendNs, s.t1-s.t0)
		}
		if !o.write {
			reads++
			self := r.t1 - r.t0
			for _, s := range x.acks[k] {
				if s.srv == r.srv && s.t0 >= r.t0 && s.t1 <= r.t1 {
					self -= s.t1 - s.t0
				}
			}
			routeSelf = append(routeSelf, self)
			if a != nil {
				routeToAck = append(routeToAck, a.t0-r.t0)
			}
			if !r.flag && a != nil {
				ws := x.writeIn[srvObj{r.srv, o.obj}]
				j, _ := slices.BinarySearch(ws, r.t0+1)
				if j < len(ws) && ws[j] <= a.t0 {
					parked++
					parkWait = append(parkWait, a.t0-r.t1)
				}
			}
			continue
		}
		origin := wire.ProcessID(r.srv) + 1
		rk := ringKey{origin, o.obj, o.tag}
		if out := firstAfter(x.ringOut[rk], r.srv, wire.KindPreWrite, r.t0); out != nil {
			originPlan = append(originPlan, out.t0-r.t1)
		}
		var back *span
		for _, s := range x.ringIn[rk] {
			if s.srv == r.srv && s.kind == wire.KindWrite {
				back = s
			}
		}
		if back != nil && a != nil {
			ackAfterRing = append(ackAfterRing, a.t0-back.t0)
		}
	}

	// Ring stages: residence (route-in to SendLane-out on one server)
	// and hop transit (SendLane on one server to route-in on the next).
	var residence, hop []int64
	for k, ins := range x.ringIn {
		outs := x.ringOut[k]
		for _, s := range ins {
			if out := firstAfter(outs, s.srv, 0, s.t0); out != nil {
				residence = append(residence, out.t0-s.t0)
			}
		}
		for _, out := range outs {
			if s := firstAfter(ins, uint8(out.peer-1), out.kind, out.t0); s != nil {
				hop = append(hop, s.t0-out.t0)
			}
		}
	}

	// core
	addDist("core.route_ns", "ns", summarize(routeSelf), false)
	dc := deltaCounters(tr.c0, tr.c1)
	add("core.ack_fast_share", dc.AckFastPathShare(), "frac", -1)
	add("core.read_park_frac", ratio(float64(parked), float64(reads)), "frac", reads)
	addDist("core.read_park_us", "us", summarize(parkWait), true)
	op := summarize(originPlan)
	addDist("core.origin_plan_us", "us", op, false)
	res := summarize(residence)
	addDist("core.lane_residence_us", "us", res, true)
	aar := summarize(ackAfterRing)
	addDist("core.ack_after_ring_us", "us", aar, false)
	add("core.envelopes_per_frame", ratio(float64(dc.RingEnvelopes), float64(dc.RingFrames)), "count", -1)
	add("core.ring_frames_per_write", ratio(float64(dc.RingFrames), float64(writesDone)), "count", writesDone)
	add("core.ack_lanes", float64(tr.c1.AckLanes), "count", -1)

	// tcpnet
	rt := summarize(reqTransit)
	addDist("tcpnet.request_transit_us", "us", rt, false)
	at := summarize(ackTransit)
	addDist("tcpnet.ack_transit_us", "us", at, true)
	hp := summarize(hop)
	addDist("tcpnet.hop_transit_us", "us", hp, true)
	addDist("tcpnet.client_send_ns", "ns", summarize(tr.sendNs), false)
	addDist("tcpnet.ack_send_ns", "ns", summarize(ackSendNs), false)
	addDist("tcpnet.send_lane_ns", "ns", summarize(x.laneNs), false)
	var frames, bytes uint64
	for ev := evSendLane; ev < numEv; ev++ {
		frames += in.rec.counts[ev].frames.Load()
		bytes += in.rec.counts[ev].bytes.Load()
	}
	add("tcpnet.frames_per_op", ratio(float64(frames), float64(done)), "count", done)
	add("tcpnet.bytes_per_op", ratio(float64(bytes), float64(done)), "B", done)

	// wire
	enc, dec, nf := codecTiming(in.rec)
	add("wire.encode_ns_per_frame", enc, "ns", nf)
	add("wire.decode_ns_per_frame", dec, "ns", nf)
	add("wire.ring_bytes_per_write", ratio(float64(in.rec.counts[evSendLane].bytes.Load()), float64(writesDone)), "B", writesDone)

	// wal
	syncs := float64(tr.w1.Syncs - tr.w0.Syncs)
	add("wal.records_per_sync", ratio(float64(tr.w1.Appends-tr.w0.Appends), syncs), "count", -1)
	add("wal.syncs_per_s", syncs/(float64(tr.end-tr.start)/1e9), "1/s", -1)
	add("wal.bytes_per_write", ratio(float64(tr.w1.AppendBytes-tr.w0.AppendBytes), float64(writesDone)), "B", writesDone)
	if d, err := deviceSync(filepath.Join(in.stateDir, "syncprobe"), in.w.valueSize); err == nil {
		addDist("wal.device_sync_us", "us", d, false)
	} else {
		absent = append(absent, "wal.device_sync_us_p50: "+err.Error())
	}
	add("wal.replay_records_per_s", ratio(float64(in.replayed), float64(in.replayNs)/1e9), "1/s", int(in.replayed))

	// client (the library, beside the load)
	addDist("client.read_us", "us", summarize(in.lib.readNs), false)
	addDist("client.write_us", "us", summarize(in.lib.writeNs), false)
	add("client.attempts_per_write", ratio(float64(in.lib.attempts), float64(len(in.lib.writeNs))), "count", len(in.lib.writeNs))

	// proc
	p0, p1 := tr.p0, tr.p1
	perOp := func(d float64) float64 { return ratio(d, float64(done)) }
	if p0.ioOK && p1.ioOK {
		add("proc.syscalls_per_op", perOp(float64(p1.syscalls-p0.syscalls)), "count", done)
	} else {
		absent = append(absent, "proc.syscalls_per_op: /proc/self/io unreadable")
	}
	if p0.rusageOK && p1.rusageOK {
		add("proc.vol_ctxsw_per_op", perOp(float64(p1.volCtxSw-p0.volCtxSw)), "count", done)
		// Read when tracing starts: the span array's pages are not
		// resident yet.
		add("proc.peak_rss_mb", float64(p0.maxRSSKB)/1024, "MB", -1)
	} else {
		absent = append(absent, "proc.vol_ctxsw_per_op, proc.peak_rss_mb: getrusage failed")
	}
	if p0.rtOK && p1.rtOK {
		add("proc.alloc_bytes_per_op", perOp(float64(p1.allocBytes-p0.allocBytes)), "B", done)
		add("proc.gc_cycles_per_kop", 1000*perOp(float64(p1.gcCycles-p0.gcCycles)), "count", done)
	} else {
		absent = append(absent, "proc.alloc_bytes_per_op, proc.gc_cycles_per_kop: runtime/metrics unsupported")
	}

	// gen and trace validity
	lg := summarize(lag)
	add("gen.lag_p99_us", us(lg.p99), "us", lg.n)
	// Closure: the end-to-end median minus the medians of the stages
	// that partition the blocking path of the workload's dominant
	// operation. Medians do not add, so this reads near, not at, zero.
	var gap float64
	if in.w.readFrac > 0.5 {
		rte := summarize(routeToAck)
		gap = us(summarize(readE2E).p50) - us(lg.p50+rt.p50+rte.p50+at.p50)
	} else {
		hops := int64(2 * nServers)
		gap = us(summarize(writeE2E).p50) - us(lg.p50+rt.p50+op.p50+hops*hp.p50+(hops-1)*res.p50+aar.p50+at.p50)
	}
	add("trace.unattributed_us_p50", gap, "us", -1)
	if tr.calmCPU > 0 && calmDone > 0 && done > 0 {
		calm := float64(tr.calmCPU) / float64(calmDone)
		traced := float64(tr.fixedCPU) / float64(done)
		add("trace.overhead_frac", traced/calm-1, "frac", -1)
	} else {
		absent = append(absent, "trace.overhead_frac: getrusage failed")
	}
	if d := in.rec.dropped.Load(); d > 0 {
		absent = append(absent, fmt.Sprintf("(note) %d spans dropped: the span array filled", d))
	}
	return ms, absent
}

func deltaCounters(a, b core.CounterSnapshot) core.CounterSnapshot {
	return core.CounterSnapshot{
		AckFastPath:   b.AckFastPath - a.AckFastPath,
		AckQueued:     b.AckQueued - a.AckQueued,
		RingFrames:    b.RingFrames - a.RingFrames,
		RingEnvelopes: b.RingEnvelopes - a.RingEnvelopes,
	}
}

// codecTiming times wire.EncodeFrame and wire.DecodeFrameBody over the
// frames the recorder sampled from the traced phase, returning ns per
// frame for each and the number of distinct frames.
func codecTiming(rec *recorder) (enc, dec float64, n int) {
	rec.frameMu.Lock()
	frames := rec.frames
	rec.frameMu.Unlock()
	if len(frames) == 0 {
		return 0, 0, 0
	}
	bodies := make([][]byte, len(frames))
	for i := range frames {
		b, err := wire.AppendFrame(nil, &frames[i])
		if err != nil {
			continue
		}
		bodies[i] = b[4:]
	}
	const budget = 50 * time.Millisecond
	var count int
	t0 := now()
	for now()-t0 < int64(budget) {
		for i := range frames {
			ef, err := wire.EncodeFrame(&frames[i])
			if err == nil {
				ef.Release()
			}
		}
		count += len(frames)
	}
	enc = float64(now()-t0) / float64(count)
	count = 0
	t0 = now()
	for now()-t0 < int64(budget) {
		for _, b := range bodies {
			_, _ = wire.DecodeFrameBody(b) // every body was just encoded
		}
		count += len(bodies)
	}
	dec = float64(now()-t0) / float64(count)
	return enc, dec, len(frames)
}

// deviceSync measures the filesystem under the WAL: a standalone log in
// SyncTrain mode, one record appended and waited for at a time, so each
// sample is one group commit of one record — a floor under durable
// write latency.
func deviceSync(dir string, valueSize int) (dist, error) {
	l, err := wal.Open(wal.Config{Dir: dir, Lanes: 1, Sync: wal.SyncTrain}, nil)
	if err != nil {
		return dist{}, err
	}
	l.Start()
	val := make([]byte, valueSize)
	var ns []int64
	for i := 1; i <= 100; i++ {
		r := wal.Record{Type: wal.RecWrite, Object: 1, Tag: tag.Tag{TS: uint64(i), ID: 1},
			Origin: 1, Flags: wal.FlagHasValue, Value: val}
		t0 := now()
		if err := l.WaitLane(0, l.Append(0, &r), nil); err != nil {
			_ = l.Close()
			return dist{}, err
		}
		ns = append(ns, now()-t0)
	}
	if err := l.Close(); err != nil {
		return dist{}, err
	}
	return summarize(ns), nil
}
