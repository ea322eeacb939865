package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/tag"
	"repro/internal/tcpnet"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Span kinds: the layer boundary a span was recorded at. Every span is
// the duration of one call from the benchmark's wrapper into a layer's
// public function.
const (
	evRoute    uint8 = iota + 1 // core's RouteFunc, called by tcpnet per inbound frame
	evSendLane                  // tcpnet SendLane (ring frames)
	evSend                      // tcpnet Send (queued acks, control)
	evTrySend                   // tcpnet TrySend (the ack fast path)
	numEv
)

// span is one envelope's passage through one call. A frame carrying
// several envelopes yields one span per sampled envelope, all with the
// call's start and end. Spans of one operation share an identifier:
// (client, req) for client requests and acks, (origin, obj, tag) for
// ring envelopes; the tag in a write ack links the two.
type span struct {
	t0, t1 int64
	req    uint64
	tag    tag.Tag
	obj    uint32
	peer   wire.ProcessID // route: the sender; sends: the destination
	origin wire.ProcessID
	ev     uint8
	srv    uint8
	kind   wire.Kind
	// flag is, for a route span, that core answered the frame on the
	// delivering goroutine (RouteDrop); for a send span, that the
	// transport accepted the frame.
	flag bool
}

// callCounts counts every call at one boundary, sampled or not.
type callCounts struct {
	calls, frames, bytes atomic.Uint64
}

// recorder keeps spans in memory — one preallocated array, filled
// through an atomic cursor, so recording takes no lock — and counts
// every call. Spans are kept for sampled objects only, which keeps
// every span of a sampled operation.
type recorder struct {
	on      atomic.Bool
	mask    uint64
	spans   []span
	release func()
	next    atomic.Int64
	dropped atomic.Int64
	counts  [numEv]callCounts

	// frames is a small sample of the frames servers sent, deep-copied,
	// for the wire codec timing.
	frameMu   sync.Mutex
	frames    []wire.Frame
	frameTick atomic.Uint64
}

const maxSampledFrames = 512

// newRecorder makes a recorder holding up to capacity spans, keeping
// objects whose hash is 0 modulo sampleDiv (a power of two). The span
// array lives off the Go heap; release frees it.
func newRecorder(capacity int, sampleDiv uint64) (*recorder, error) {
	spans, release, err := offHeap[span](capacity)
	if err != nil {
		return nil, fmt.Errorf("span array: %w", err)
	}
	return &recorder{spans: spans, release: release, mask: sampleDiv - 1}, nil
}

func (r *recorder) sampled(obj wire.ObjectID) bool {
	return splitmix(uint64(obj))&r.mask == 0
}

// recorded returns the spans recorded so far.
func (r *recorder) recorded() []span {
	n := r.next.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return r.spans[:n]
}

// call is one timed call: its reserved span range and the size of the
// frame it carried, captured before the call hands the frame on.
type call struct {
	i, k  int
	bytes uint64
}

// begin reserves and fills one span per sampled envelope of f and
// captures what end needs. It reads the frame before the call, while
// the caller still owns it: once the transport has encoded a frame, or
// core has delivered an inbound one, its buffers may be reused.
func (r *recorder) begin(f *wire.Frame, ev uint8, srv int, peer wire.ProcessID) call {
	c := call{bytes: uint64(f.WireSize())}
	if r.frameTick.Add(1)%64 == 0 {
		r.keepFrame(f)
	}
	forEachEnv(f, func(e *wire.Envelope) {
		if r.sampled(e.Object) {
			c.k++
		}
	})
	if c.k == 0 {
		return c
	}
	end := r.next.Add(int64(c.k))
	if end > int64(len(r.spans)) {
		r.dropped.Add(int64(c.k))
		c.k = 0
		return c
	}
	c.i = int(end) - c.k
	i := c.i
	forEachEnv(f, func(e *wire.Envelope) {
		if r.sampled(e.Object) {
			r.spans[i] = span{req: e.ReqID, tag: e.Tag, obj: uint32(e.Object), peer: peer,
				origin: e.Origin, ev: ev, srv: uint8(srv), kind: e.Kind}
			i++
		}
	})
	return c
}

// end stamps the call's spans and counts the call; frames and bytes
// count only frames the layer accepted.
func (r *recorder) end(c call, ev uint8, t0, t1 int64, flag bool) {
	for j := c.i; j < c.i+c.k; j++ {
		r.spans[j].t0, r.spans[j].t1, r.spans[j].flag = t0, t1, flag
	}
	cc := &r.counts[ev]
	cc.calls.Add(1)
	if ev == evRoute || flag {
		cc.frames.Add(1)
		cc.bytes.Add(c.bytes)
	}
}

func (r *recorder) keepFrame(f *wire.Frame) {
	c := wire.Frame{Lane: f.Lane, Env: f.Env.Clone()}
	if f.Piggyback != nil {
		pb := f.Piggyback.Clone()
		c.Piggyback = &pb
	}
	for i := range f.Extra {
		c.Extra = append(c.Extra, f.Extra[i].Clone())
	}
	r.frameMu.Lock()
	if len(r.frames) < maxSampledFrames {
		r.frames = append(r.frames, c)
	}
	r.frameMu.Unlock()
}

func forEachEnv(f *wire.Frame, fn func(*wire.Envelope)) {
	fn(&f.Env)
	if f.Piggyback != nil {
		fn(f.Piggyback)
	}
	for i := range f.Extra {
		fn(&f.Extra[i])
	}
}

// tracedEndpoint wraps a server's tcpnet endpoint and times the calls
// core makes into it, plus the calls tcpnet makes into core's RouteFunc.
// It implements exactly the interfaces core type-asserts (Demuxer,
// LaneSender, TrySender, PeerCapser), so a traced server runs the same
// code paths as an untraced one. With the recorder off every method is
// a plain delegation.
type tracedEndpoint struct {
	ep  *tcpnet.Endpoint
	srv int
	rec *recorder
}

var (
	_ transport.Endpoint   = (*tracedEndpoint)(nil)
	_ transport.Demuxer    = (*tracedEndpoint)(nil)
	_ transport.LaneSender = (*tracedEndpoint)(nil)
	_ transport.TrySender  = (*tracedEndpoint)(nil)
	_ transport.PeerCapser = (*tracedEndpoint)(nil)
)

func (t *tracedEndpoint) ID() wire.ProcessID                        { return t.ep.ID() }
func (t *tracedEndpoint) Inbox() <-chan transport.Inbound           { return t.ep.Inbox() }
func (t *tracedEndpoint) Failures() <-chan wire.ProcessID           { return t.ep.Failures() }
func (t *tracedEndpoint) Done() <-chan struct{}                     { return t.ep.Done() }
func (t *tracedEndpoint) Close() error                              { return t.ep.Close() }
func (t *tracedEndpoint) PeerCaps(to wire.ProcessID) (uint32, bool) { return t.ep.PeerCaps(to) }

// SetDemux installs core's RouteFunc wrapped in a timer: tcpnet calls it
// for every inbound frame, which is where core serves reads from its
// snapshot and dispatches everything else to a lane.
func (t *tracedEndpoint) SetDemux(route transport.RouteFunc, inboxes []chan transport.Inbound) {
	t.ep.SetDemux(func(in *transport.Inbound) int {
		if !t.rec.on.Load() {
			return route(in)
		}
		c := t.rec.begin(&in.Frame, evRoute, t.srv, in.From)
		t0 := now()
		res := route(in)
		t1 := now()
		t.rec.end(c, evRoute, t0, t1, res == transport.RouteDrop)
		return res
	}, inboxes)
}

func (t *tracedEndpoint) Send(to wire.ProcessID, f wire.Frame) error {
	if !t.rec.on.Load() {
		return t.ep.Send(to, f)
	}
	c := t.rec.begin(&f, evSend, t.srv, to)
	t0 := now()
	err := t.ep.Send(to, f)
	t.rec.end(c, evSend, t0, now(), err == nil)
	return err
}

func (t *tracedEndpoint) SendLane(to wire.ProcessID, lane int, f wire.Frame) error {
	if !t.rec.on.Load() {
		return t.ep.SendLane(to, lane, f)
	}
	c := t.rec.begin(&f, evSendLane, t.srv, to)
	t0 := now()
	err := t.ep.SendLane(to, lane, f)
	t.rec.end(c, evSendLane, t0, now(), err == nil)
	return err
}

func (t *tracedEndpoint) TrySend(to wire.ProcessID, f wire.Frame) bool {
	if !t.rec.on.Load() {
		return t.ep.TrySend(to, f)
	}
	c := t.rec.begin(&f, evTrySend, t.srv, to)
	t0 := now()
	ok := t.ep.TrySend(to, f)
	t.rec.end(c, evTrySend, t0, now(), ok)
	return ok
}
