package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// DefaultInboxCapacity is the per-endpoint inbox buffer used when the
// network option is zero. It is deliberately small: the fairness
// mechanism of the storage algorithm only engages when links exert
// backpressure, exactly as a saturated NIC would.
const DefaultInboxCapacity = 64

// MemNetworkOptions configure an in-memory network.
type MemNetworkOptions struct {
	// InboxCapacity is the per-endpoint inbound buffer. Zero means
	// DefaultInboxCapacity.
	InboxCapacity int
	// SendQueueCapacity, when positive, mirrors the TCP transport's
	// write path so simulated and real deployments share queueing
	// structure: each destination gets its own bounded outbound queue
	// drained by its own sender goroutine delivering coalesced runs of
	// frames (one queue and one writer per peer, as tcpnet has — a slow
	// destination never delays frames bound elsewhere). Send then
	// blocks on that per-peer queue instead of on the destination
	// inbox, and delivery failures after acceptance are silent (the
	// failure detector reports the peer). Zero keeps the direct
	// handoff: Send blocks on the destination inbox, the tightest
	// backpressure (the seed's behavior).
	SendQueueCapacity int
	// MaxBatchFrames caps one coalesced delivery run of the sender
	// goroutine, mirroring tcpnet's MaxBatchBytes. Zero means 32. Only
	// meaningful with SendQueueCapacity > 0.
	MaxBatchFrames int
	// EncodeAtEnqueue mirrors tcpnet's zero-copy egress semantics
	// (DESIGN.md §14): the producing goroutine encodes each queued
	// frame into a pooled wire.EncodedFrame at enqueue time, the queue
	// carries the encoded buffer alongside the frame value, and the
	// sender goroutine releases the buffer at delivery — the in-memory
	// stand-in for "the kernel consumed the iovec". Delivery itself
	// still hands over the frame value (memnet never decodes; that is
	// what makes it a shared-memory transport), so the option's effect
	// is to charge the producer the same encode cost, surface encode
	// errors at the same call site, and hold pooled buffers over the
	// same window as the TCP path, keeping cross-transport benches
	// comparable. Only meaningful with SendQueueCapacity > 0.
	EncodeAtEnqueue bool
}

func (o MemNetworkOptions) withDefaults() MemNetworkOptions {
	if o.InboxCapacity <= 0 {
		o.InboxCapacity = DefaultInboxCapacity
	}
	if o.MaxBatchFrames <= 0 {
		o.MaxBatchFrames = 32
	}
	return o
}

// MemNetwork is an in-memory message hub connecting endpoints by process
// id. It supports injected crashes, which are reported to every other
// endpoint through the perfect failure detector channel — modelling the
// paper's cluster where a broken TCP connection reliably indicates a
// crash.
type MemNetwork struct {
	opts MemNetworkOptions

	// faults, when set, decides the fate of every frame crossing the
	// network (drop, delay, deliver) — the scenario runner's seam. See
	// faults.go; nil means every frame is delivered.
	faults atomic.Pointer[injectorBox]
	// dline parks frames a verdict delayed; its goroutine starts on the
	// first delayed frame.
	dline delayLine

	mu        sync.Mutex
	endpoints map[wire.ProcessID]*MemEndpoint
}

// NewMemNetwork returns an empty in-memory network.
func NewMemNetwork(opts MemNetworkOptions) *MemNetwork {
	n := &MemNetwork{
		opts:      opts.withDefaults(),
		endpoints: make(map[wire.ProcessID]*MemEndpoint),
	}
	n.dline.net = n
	return n
}

// Register attaches a new endpoint for the given process id. The
// endpoint is session-less: it asserts no HELLO and is never validated
// against its peers (the v2-era behavior, kept for tests and tools).
func (n *MemNetwork) Register(id wire.ProcessID) (*MemEndpoint, error) {
	return n.register(id, nil)
}

// RegisterSession attaches a new endpoint that asserts the given HELLO.
// Frames between two session endpoints flow only if their HELLOs are
// compatible (wire version, lane fanout, membership hash); the first
// Send or Handshake to an incompatible peer fails with a typed
// *wire.HandshakeError — the in-memory equivalent of tcpnet rejecting
// the connection at handshake time. A session endpoint still talks
// freely to session-less Register endpoints, mirroring the TCP
// transport's legacy-peer compatibility option.
func (n *MemNetwork) RegisterSession(h wire.Hello) (*MemEndpoint, error) {
	return n.register(h.From, &h)
}

func (n *MemNetwork) register(id wire.ProcessID, hello *wire.Hello) (*MemEndpoint, error) {
	if id == wire.NoProcess {
		return nil, fmt.Errorf("transport: cannot register %v", id)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.endpoints[id]; dup {
		return nil, fmt.Errorf("transport: process %d already registered", id)
	}
	ep := &MemEndpoint{
		net:      n,
		id:       id,
		hello:    hello,
		inbox:    make(chan Inbound, n.opts.InboxCapacity),
		failures: make(chan wire.ProcessID, 64),
		down:     make(chan struct{}),
	}
	if n.opts.SendQueueCapacity > 0 {
		ep.outqs = make(map[outKey]chan memOut)
	}
	n.endpoints[id] = ep
	return ep, nil
}

// Crash simulates the simultaneous crash of the given processes: their
// endpoints stop accepting and delivering messages, and every endpoint
// that survives receives one failure notification per crashed process.
// The victims leave the network at one instant, so none of them hears
// of another's crash (a power loss, not a rolling failure). Crashing
// an unknown or already-down process is a no-op.
func (n *MemNetwork) Crash(ids ...wire.ProcessID) {
	n.mu.Lock()
	var victims []*MemEndpoint
	for _, id := range ids {
		if ep := n.endpoints[id]; ep != nil {
			delete(n.endpoints, id)
			victims = append(victims, ep)
		}
	}
	others := make([]*MemEndpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		others = append(others, ep)
	}
	n.mu.Unlock()

	for _, v := range victims {
		v.shutdown()
	}
	for _, ep := range others {
		for _, v := range victims {
			ep.notifyFailure(v.id)
		}
	}
}

// lookup returns the live endpoint for id, or nil.
func (n *MemNetwork) lookup(id wire.ProcessID) *MemEndpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.endpoints[id]
}

// remove detaches an endpoint without failure notifications.
func (n *MemNetwork) remove(id wire.ProcessID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.endpoints, id)
}

// outKey identifies one logical outbound link: a destination process
// and the ring lane the link is pinned to (laneGeneral for the unpinned
// link carrying client and control traffic).
type outKey struct {
	to   wire.ProcessID
	lane int
}

// memOut is one queued outbound frame. enc is non-nil only in
// EncodeAtEnqueue mode: the pooled encoded form produced on the
// sending goroutine, released when the frame is delivered (or when the
// queue drains on shutdown).
type memOut struct {
	f   wire.Frame
	enc *wire.EncodedFrame
}

// laneGeneral is the outKey lane of the unpinned link.
const laneGeneral = -1

// MemEndpoint is an in-memory Endpoint.
type MemEndpoint struct {
	net      *MemNetwork
	id       wire.ProcessID
	hello    *wire.Hello // nil for session-less endpoints
	inbox    chan Inbound
	failures chan wire.ProcessID

	// outqs, when non-nil, holds the per-link bounded outbound queues
	// of the batching mode (MemNetworkOptions.SendQueueCapacity > 0),
	// each drained by its own sender goroutine — one queue and one
	// writer per (peer, lane), exactly like tcpnet's per-lane
	// connections, so a slow destination or a saturated lane never
	// holds up frames bound elsewhere.
	outmu sync.Mutex
	outqs map[outKey]chan memOut

	// demux, when set, routes inbound frames to per-lane inboxes
	// instead of the shared inbox (Demuxer).
	demux atomic.Pointer[DemuxTable]

	downOnce sync.Once
	down     chan struct{}
}

var (
	_ Endpoint   = (*MemEndpoint)(nil)
	_ Demuxer    = (*MemEndpoint)(nil)
	_ LaneSender = (*MemEndpoint)(nil)
	_ Handshaker = (*MemEndpoint)(nil)
	_ PeerCapser = (*MemEndpoint)(nil)
	_ TrySender  = (*MemEndpoint)(nil)
)

// SetDemux implements Demuxer: subsequent deliveries to this endpoint go
// to inboxes[route(frame)], with the shared inbox as the out-of-range
// fallback.
func (e *MemEndpoint) SetDemux(route RouteFunc, inboxes []chan Inbound) {
	e.demux.Store(&DemuxTable{Route: route, Inboxes: inboxes})
}

// inboxFor returns the channel a frame bound for this endpoint goes to.
func (e *MemEndpoint) inboxFor(inb *Inbound) chan Inbound {
	if d := e.demux.Load(); d != nil {
		return d.Target(e.inbox, inb)
	}
	return e.inbox
}

// ID implements Endpoint.
func (e *MemEndpoint) ID() wire.ProcessID { return e.id }

// Inbox implements Endpoint.
func (e *MemEndpoint) Inbox() <-chan Inbound { return e.inbox }

// Failures implements Endpoint.
func (e *MemEndpoint) Failures() <-chan wire.ProcessID { return e.failures }

// Done implements Endpoint.
func (e *MemEndpoint) Done() <-chan struct{} { return e.down }

// Send implements Endpoint. Self-sends are allowed (a one-server ring
// forwards to itself). In batching mode the frame is accepted once the
// local outbound queue has room; otherwise it is handed directly to the
// destination inbox. Between two session endpoints the first frame is
// preceded by the HELLO compatibility check; an incompatible peer fails
// with a *wire.HandshakeError.
func (e *MemEndpoint) Send(to wire.ProcessID, f wire.Frame) error {
	return e.sendLane(to, laneGeneral, f)
}

// SendLane implements LaneSender: the frame travels the dedicated link
// of the given ring lane, delivered with the lane as the link's
// negotiated lane so the receiver demultiplexes by session state rather
// than the frame header. Peers that did not negotiate wire.CapLaneLinks
// are reached over the general link instead.
func (e *MemEndpoint) SendLane(to wire.ProcessID, lane int, f wire.Frame) error {
	if lane < 0 {
		lane = laneGeneral
	}
	return e.sendLane(to, lane, f)
}

func (e *MemEndpoint) sendLane(to wire.ProcessID, lane int, f wire.Frame) error {
	select {
	case <-e.down:
		return ErrClosed
	default:
	}
	dst := e.net.lookup(to)
	if dst == nil {
		return fmt.Errorf("%w: %d", ErrPeerDown, to)
	}
	if err := e.checkSession(to, dst); err != nil {
		return err
	}
	if !e.laneLinksWith(dst) {
		lane = laneGeneral
	}
	if f.EnvelopeCount() > 2 && !e.trainsWith(dst) {
		// A wire-v4 train frame must never reach a link whose session
		// did not negotiate trains; such peers get the equivalent run
		// of v3 piggyback frames instead (same envelopes, same order,
		// same link). Mirrors tcpnet, where the split is what keeps a
		// pre-train decoder from treating the frame as corrupt.
		for _, sub := range f.SplitLegacy() {
			if err := e.sendOne(to, lane, dst, sub); err != nil {
				return err
			}
		}
		return nil
	}
	return e.sendOne(to, lane, dst, f)
}

// sendOne moves one frame toward the destination: onto the per-link
// queue in batching mode (encoding it first when the network mirrors
// tcpnet's encode-at-enqueue semantics), straight into the destination
// inbox otherwise.
func (e *MemEndpoint) sendOne(to wire.ProcessID, lane int, dst *MemEndpoint, f wire.Frame) error {
	if e.outqs != nil {
		m := memOut{f: f}
		if e.net.opts.EncodeAtEnqueue {
			enc, err := wire.EncodeFrame(&f)
			if err != nil {
				return err
			}
			m.enc = enc
		}
		q := e.queueFor(to, lane)
		select {
		case q <- m:
			e.reclaimIfDown(q)
			return nil
		case <-e.down:
			if m.enc != nil {
				m.enc.Release()
			}
			return ErrClosed
		}
	}
	// The injected-fault verdict sits at the network edge, after the
	// frame was accepted: a dropped frame is a successful Send whose
	// bytes died on the wire, a delayed one parks on the delay line.
	switch v := e.net.verdict(e.id, to, lane, &f); {
	case v.Drop:
		f.Retire()
		return nil
	case v.Delay > 0:
		e.net.dline.push(e.id, to, lane, f, v.Delay)
		return nil
	}
	inb := Inbound{From: e.id, Frame: f, LinkLane: lane + 1}
	ch := dst.inboxFor(&inb)
	if ch == nil {
		// Routed to RouteDrop: discarded by design. Retire any pooled
		// buffers like the other drop sites (none arise over memnet
		// today, but the ownership rule should not depend on that).
		inb.Frame.Retire()
		return nil
	}
	select {
	case ch <- inb:
		return nil
	case <-dst.down:
		return fmt.Errorf("%w: %d", ErrPeerDown, to)
	case <-e.down:
		return ErrClosed
	}
}

// TrySend implements TrySender: the frame travels the general link only
// if it can be accepted without blocking — a non-blocking push onto the
// per-link queue in batching mode, or straight into the destination
// inbox in direct mode. False (unknown peer, incompatible session, full
// channel, a train the peer cannot decode) commits to nothing; the
// caller falls back to Send on another goroutine.
func (e *MemEndpoint) TrySend(to wire.ProcessID, f wire.Frame) bool {
	select {
	case <-e.down:
		return false
	default:
	}
	dst := e.net.lookup(to)
	if dst == nil {
		return false
	}
	if e.checkSession(to, dst) != nil {
		return false
	}
	if f.EnvelopeCount() > 2 && !e.trainsWith(dst) {
		return false // needs the legacy split; take the blocking path
	}
	if e.outqs != nil {
		m := memOut{f: f}
		if e.net.opts.EncodeAtEnqueue {
			q := e.queueFor(to, laneGeneral)
			if len(q) == cap(q) {
				return false // full right now; skip the encode work
			}
			enc, err := wire.EncodeFrame(&f)
			if err != nil {
				return false
			}
			m.enc = enc
			select {
			case q <- m:
				e.reclaimIfDown(q)
				return true
			default:
				enc.Release()
				return false
			}
		}
		select {
		case e.queueFor(to, laneGeneral) <- m:
			return true
		default:
			return false
		}
	}
	// Same fault seam as sendOne: a Drop or Delay verdict counts as an
	// accepted send (the frame left this process without blocking).
	switch v := e.net.verdict(e.id, to, laneGeneral, &f); {
	case v.Drop:
		f.Retire()
		return true
	case v.Delay > 0:
		e.net.dline.push(e.id, to, laneGeneral, f, v.Delay)
		return true
	}
	inb := Inbound{From: e.id, Frame: f, LinkLane: laneGeneral + 1}
	ch := dst.inboxFor(&inb)
	if ch == nil {
		inb.Frame.Retire() // routed to RouteDrop: discarded by design
		return true
	}
	select {
	case ch <- inb:
		return true
	default:
		return false
	}
}

// PeerCaps implements PeerCapser: the negotiated capability set with
// the peer. In-memory sessions "handshake" on lookup, so capabilities
// are known whenever the peer is registered; a session-less endpoint on
// either side negotiates the empty set.
func (e *MemEndpoint) PeerCaps(to wire.ProcessID) (uint32, bool) {
	dst := e.net.lookup(to)
	if dst == nil {
		return 0, false
	}
	if e.hello == nil || dst.hello == nil {
		return 0, true
	}
	return e.hello.Capabilities & dst.hello.Capabilities, true
}

// trainsWith reports whether both ends negotiated wire-v4 frame trains.
func (e *MemEndpoint) trainsWith(dst *MemEndpoint) bool {
	return e.hello != nil && dst.hello != nil &&
		e.hello.Capabilities&dst.hello.Capabilities&wire.CapFrameTrains != 0
}

// Handshake implements Handshaker: it validates the session against the
// peer without sending a frame, returning a *wire.HandshakeError when
// the two HELLOs are incompatible.
func (e *MemEndpoint) Handshake(to wire.ProcessID) error {
	select {
	case <-e.down:
		return ErrClosed
	default:
	}
	dst := e.net.lookup(to)
	if dst == nil {
		return fmt.Errorf("%w: %d", ErrPeerDown, to)
	}
	return e.checkSession(to, dst)
}

// checkSession validates this endpoint's HELLO against the peer's. A
// session-less endpoint on either side skips the check — the in-memory
// form of the legacy-peer compatibility option.
func (e *MemEndpoint) checkSession(to wire.ProcessID, dst *MemEndpoint) error {
	if e.hello == nil || dst.hello == nil {
		return nil
	}
	if err := e.hello.CheckCompatible(dst.hello); err != nil {
		return fmt.Errorf("transport: handshake with %d: %w", to, err)
	}
	return nil
}

// laneLinksWith reports whether both ends negotiated per-lane links.
func (e *MemEndpoint) laneLinksWith(dst *MemEndpoint) bool {
	return e.hello != nil && dst.hello != nil &&
		e.hello.Capabilities&dst.hello.Capabilities&wire.CapLaneLinks != 0
}

// queueFor returns the outbound queue for a link, creating it and its
// sender goroutine on first use (tcpnet's lazily dialed per-lane peer).
func (e *MemEndpoint) queueFor(to wire.ProcessID, lane int) chan memOut {
	key := outKey{to: to, lane: lane}
	e.outmu.Lock()
	defer e.outmu.Unlock()
	q, ok := e.outqs[key]
	if !ok {
		q = make(chan memOut, e.net.opts.SendQueueCapacity)
		e.outqs[key] = q
		go e.senderLoop(key, q, e.net.opts.MaxBatchFrames)
	}
	return q
}

// reclaimIfDown handles the push-vs-shutdown race of EncodeAtEnqueue
// mode, mirroring tcpnet: a send landing in the queue buffer just as
// the endpoint goes down can slip in after the sender goroutine's
// final drain, stranding a pooled encoded buffer. After a successful
// push the producer re-checks; if the endpoint went down meanwhile, it
// pulls one queued entry back out and releases it.
func (e *MemEndpoint) reclaimIfDown(q chan memOut) {
	select {
	case <-e.down:
		select {
		case m := <-q:
			if m.enc != nil {
				m.enc.Release()
			}
		default:
		}
	default:
	}
}

// senderLoop drains one link's queue in coalesced runs, mirroring the
// TCP per-link writer: wake up for one frame, keep delivering
// already-queued frames up to the batch cap, then block again. On
// shutdown it drains the queue once more so no encoded buffer stays
// stranded (racing late pushes reclaim themselves, reclaimIfDown).
func (e *MemEndpoint) senderLoop(key outKey, q chan memOut, maxBatch int) {
	for {
		select {
		case m := <-q:
			e.deliver(key, m)
			for i := 1; i < maxBatch; i++ {
				select {
				case m2 := <-q:
					e.deliver(key, m2)
					continue
				default:
				}
				break
			}
		case <-e.down:
			for {
				select {
				case m := <-q:
					if m.enc != nil {
						m.enc.Release()
					}
				default:
					return
				}
			}
		}
	}
}

// deliver pushes one queued frame into its destination inbox, tagged
// with the link's negotiated lane, then releases the encoded form (if
// any) — delivery is the in-memory analogue of the kernel consuming
// the iovec. A vanished or crashed destination drops the frame
// silently — the same fate a TCP-queued frame meets when the
// connection breaks after Send accepted it; the failure detector
// carries the news.
func (e *MemEndpoint) deliver(key outKey, m memOut) {
	if m.enc != nil {
		defer m.enc.Release()
	}
	// Batching mode applies the fault verdict here, at the network edge
	// where the per-link writer hands the frame to the wire — the same
	// point the direct path intercepts in sendOne.
	switch v := e.net.verdict(e.id, key.to, key.lane, &m.f); {
	case v.Drop:
		m.f.Retire()
		return
	case v.Delay > 0:
		e.net.dline.push(e.id, key.to, key.lane, m.f, v.Delay)
		return
	}
	dst := e.net.lookup(key.to)
	if dst == nil {
		return
	}
	inb := Inbound{From: e.id, Frame: m.f, LinkLane: key.lane + 1}
	ch := dst.inboxFor(&inb)
	if ch == nil {
		inb.Frame.Retire() // routed to RouteDrop
		return
	}
	select {
	case ch <- inb:
	case <-dst.down:
	case <-e.down:
	}
}

// Close implements Endpoint: it detaches silently (no failure notices).
func (e *MemEndpoint) Close() error {
	e.net.remove(e.id)
	e.shutdown()
	return nil
}

// shutdown marks the endpoint down, releasing blocked senders/receivers.
func (e *MemEndpoint) shutdown() {
	e.downOnce.Do(func() { close(e.down) })
}

// notifyFailure enqueues a failure-detector notification, dropping it if
// the endpoint is already down.
func (e *MemEndpoint) notifyFailure(id wire.ProcessID) {
	select {
	case e.failures <- id:
	case <-e.down:
	}
}
