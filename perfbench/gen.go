package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tag"
	"repro/internal/wire"
)

// Phases an operation can belong to. Latency percentiles come from
// phaseFixed only; every phase's operations enter the correctness gate.
const (
	phaseSeed     uint8 = iota + 1 // one write per object during set-up
	phaseWarm                      // fixed-rate warm-up, not measured
	phaseFixed                     // open-loop fixed-rate measurement
	phaseSat                       // closed-loop saturation measurement
	phaseCalm                      // trace mode: fixed rate, tracing off
	phaseReadback                  // reads after the restart
)

// opLog chunking: a connection's operations live in fixed-size chunks
// allocated by its sender on demand and published through atomic
// pointers, so recording costs no lock and no copy, and memory follows
// the operations actually issued.
const (
	chunkBits = 16
	chunkSize = 1 << chunkBits
	maxChunks = 128 // 8M operations per connection
)

// opRec is written only by the connection's sender goroutine.
type opRec struct {
	sched int64 // scheduled send instant (open loop), else = sent
	sent  int64 // instant just before the frame was handed to write
	obj   uint32
	write bool
	phase uint8
}

// ackRec is written only by the connection's receiver goroutine.
type ackRec struct {
	recv int64 // instant the ack was decoded; 0 = no ack yet
	tag  tag.Tag
	vid  uint64 // value id the read returned (0 = initial value)
	kind wire.Kind
	bad  bool // read value failed its byte-pattern check
}

type opChunk struct {
	op  [chunkSize]opRec
	ack [chunkSize]ackRec
}

// genConn is one generator connection: a raw client session to a single
// server, driven by exactly one sender and one receiver goroutine.
type genConn struct {
	idx     int
	id      wire.ProcessID
	server  wire.ProcessID
	nc      net.Conn
	objects int
	vsize   int

	chunks [maxChunks]atomic.Pointer[opChunk]
	issued atomic.Uint64 // operations whose request was (about to be) sent
	acked  atomic.Uint64
	// tokens is the closed-loop window: the receiver returns one per
	// ack without blocking, and the closed-loop sender takes one per
	// request. Its capacity is the largest window any phase uses.
	tokens chan struct{}

	// Receiver-side anomaly counters.
	unknown, dups atomic.Uint64
	recvErr       atomic.Pointer[error]

	// Sender-only state.
	rng      *rand.Rand
	readFrac float64
	wbuf     []byte
	vbuf     []byte
	releases []func() // unmaps the chunks
	// sendNs records, when non-nil, the per-frame cost of every write
	// call (trace mode: tcpnet.client_send_ns).
	sendNs []int64

	recvDone chan struct{}
}

// clientHello is the HELLO a raw client presents: lane-unaware, no
// capabilities, committed to the ring membership.
func clientHello(id wire.ProcessID, members []wire.ProcessID) wire.Hello {
	return wire.Hello{
		Version:        wire.HelloVersion,
		From:           id,
		Link:           wire.LinkGeneral,
		MembershipHash: wire.MembershipHash(members),
	}
}

// dialGen opens a raw client session to one server: the session
// preamble ("ATS3", the HELLO length, the HELLO), the server's status
// byte and HELLO, then length-prefixed frames in both directions.
func dialGen(idx int, id, server wire.ProcessID, addr string, members []wire.ProcessID, w *workload, seed uint64) (*genConn, error) {
	nc, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial server %d: %w", server, err)
	}
	h := clientHello(id, members)
	pre := append([]byte("ATS3"), byte(wire.HelloWireSize()))
	pre = wire.AppendHello(pre, &h)
	if _, err := nc.Write(pre); err != nil {
		nc.Close()
		return nil, fmt.Errorf("handshake with server %d: %w", server, err)
	}
	if err := nc.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		nc.Close()
		return nil, err
	}
	var hdr [2]byte
	if _, err := io.ReadFull(nc, hdr[:]); err != nil {
		nc.Close()
		return nil, fmt.Errorf("handshake reply from server %d: %w", server, err)
	}
	body := make([]byte, hdr[1])
	if _, err := io.ReadFull(nc, body); err != nil {
		nc.Close()
		return nil, fmt.Errorf("handshake reply from server %d: %w", server, err)
	}
	remote, err := wire.DecodeHello(body)
	if err == nil {
		err = h.CheckCompatible(&remote)
	}
	if err == nil && (hdr[0] != 0 || remote.From != server) {
		err = fmt.Errorf("status %d from process %d", hdr[0], remote.From)
	}
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("handshake with server %d: %w", server, err)
	}
	if err := nc.SetReadDeadline(time.Time{}); err != nil {
		nc.Close()
		return nil, err
	}
	c := &genConn{
		idx:      idx,
		id:       id,
		server:   server,
		nc:       nc,
		objects:  w.objects,
		vsize:    w.valueSize,
		tokens:   make(chan struct{}, maxWindow),
		rng:      rand.New(rand.NewPCG(seed, uint64(idx))),
		readFrac: w.readFrac,
		vbuf:     make([]byte, w.valueSize),
		recvDone: make(chan struct{}),
	}
	go c.receive()
	return c, nil
}

// maxWindow bounds the closed-loop outstanding requests per connection.
const maxWindow = 1024

// close shuts the connection and waits for its receiver to exit.
func (c *genConn) close() {
	c.nc.Close()
	<-c.recvDone
}

// rec returns the records of operation seq (which must be issued).
func (c *genConn) rec(seq uint64) (*opRec, *ackRec) {
	ch := c.chunks[seq>>chunkBits].Load()
	return &ch.op[seq&(chunkSize-1)], &ch.ack[seq&(chunkSize-1)]
}

// valueID names a written value: the connection in the high bits and
// the operation sequence in the low 40. Zero is the initial value.
func valueID(conn int, seq uint64) uint64 { return uint64(conn+1)<<40 | seq }

// fillValue writes v's bytes: the value id, then a byte pattern derived
// from it, so every read can verify the whole value, not just its id.
func fillValue(v []byte, vid uint64) {
	binary.BigEndian.PutUint64(v, vid)
	x := vid
	i := 8
	for ; i+8 <= len(v); i += 8 {
		x = splitmix(x)
		binary.LittleEndian.PutUint64(v[i:], x)
	}
	if i < len(v) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], splitmix(x))
		copy(v[i:], tail[:])
	}
}

// checkValue reports whether v is exactly the value fillValue would
// produce for its embedded id (and has the workload's size).
func checkValue(v []byte, size int) (uint64, bool) {
	if len(v) != size || size < 8 {
		return 0, false
	}
	vid := binary.BigEndian.Uint64(v)
	x := vid
	i := 8
	for ; i+8 <= len(v); i += 8 {
		x = splitmix(x)
		if binary.LittleEndian.Uint64(v[i:]) != x {
			return vid, false
		}
	}
	if i < len(v) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], splitmix(x))
		for j := i; j < len(v); j++ {
			if v[j] != tail[j-i] {
				return vid, false
			}
		}
	}
	return vid, true
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// appendOp allocates the next operation, records it, and appends its
// request frame to the write buffer. obj < 0 draws the object and the
// read/write choice from the connection's seeded stream; otherwise the
// operation targets obj and is a write when write is set.
func (c *genConn) appendOp(phase uint8, sched int64, obj int, write bool) error {
	seq := c.issued.Load()
	if seq>>chunkBits >= maxChunks {
		return errors.New("operation log full")
	}
	if seq&(chunkSize-1) == 0 && c.chunks[seq>>chunkBits].Load() == nil {
		ch, release, err := offHeap[opChunk](1)
		if err != nil {
			return fmt.Errorf("operation log: %w", err)
		}
		c.releases = append(c.releases, release)
		c.chunks[seq>>chunkBits].Store(&ch[0])
	}
	op, _ := c.rec(seq)
	if obj < 0 {
		write = c.rng.Float64() >= c.readFrac
		obj = c.rng.IntN(c.objects)
	}
	*op = opRec{sched: sched, obj: uint32(obj), write: write, phase: phase}
	env := wire.Envelope{Kind: wire.KindReadRequest, Object: wire.ObjectID(obj), ReqID: seq + 1}
	if write {
		env.Kind = wire.KindWriteRequest
		fillValue(c.vbuf, valueID(c.idx, seq))
		env.Value = c.vbuf
	}
	f := wire.NewFrame(env)
	var err error
	if c.wbuf, err = wire.AppendFrame(c.wbuf, &f); err != nil {
		return err
	}
	// Publish before the bytes leave, so the receiver can tell a
	// known request id from an unknown one.
	c.issued.Store(seq + 1)
	return nil
}

// flush writes the batched frames of ops [from, issued) and stamps their
// send instants.
func (c *genConn) flush(from uint64) error {
	if len(c.wbuf) == 0 {
		return nil
	}
	t0 := now()
	to := c.issued.Load()
	for s := from; s < to; s++ {
		op, _ := c.rec(s)
		op.sent = t0
		if op.sched == 0 {
			op.sched = t0
		}
	}
	_, err := c.nc.Write(c.wbuf)
	if c.sendNs != nil && to > from {
		c.sendNs = append(c.sendNs, (now()-t0)/int64(to-from))
	}
	c.wbuf = c.wbuf[:0]
	if err != nil {
		return fmt.Errorf("send to server %d: %w", c.server, err)
	}
	return nil
}

// runOpenLoop issues operations on a fixed schedule — rate per second,
// phase-shifted by offset — from start until end (clock ns), timing
// each from its scheduled instant. Operations whose instant has passed
// when the sender wakes leave together in one write.
func (c *genConn) runOpenLoop(phase uint8, rate float64, offset, start, end int64) error {
	interval := 1e9 / rate
	wk, err := newWaker()
	if err != nil {
		return err
	}
	defer wk.close()
	for k := 0; ; {
		sched := start + offset + int64(float64(k)*interval)
		if sched >= end {
			return nil
		}
		if d := sched - now(); d > 0 {
			if err := wk.sleep(time.Duration(d)); err != nil {
				return err
			}
		}
		t := now()
		from := c.issued.Load()
		for ; sched < end && sched <= t; sched = start + offset + int64(float64(k)*interval) {
			if err := c.appendOp(phase, sched, -1, false); err != nil {
				return err
			}
			k++
		}
		if err := c.flush(from); err != nil {
			return err
		}
	}
}

// runClosedLoop keeps window requests outstanding until end (clock ns),
// or, when objs is non-nil, until it has issued one operation on each
// listed object (writes when write is set, else reads). The caller
// guarantees no earlier request is still outstanding.
func (c *genConn) runClosedLoop(phase uint8, window int, end int64, objs []int, write bool) error {
	for len(c.tokens) > 0 {
		<-c.tokens
	}
	for i := 0; i < window; i++ {
		c.tokens <- struct{}{}
	}
	timer := time.NewTimer(time.Duration(end - now()))
	defer timer.Stop()
	for next := 0; objs == nil || next < len(objs); {
		select {
		case <-c.tokens:
		case <-timer.C:
			return nil
		}
		from := c.issued.Load()
		for n := 1; ; n++ {
			obj := -1
			if objs != nil {
				obj = objs[next]
				next++
			}
			if err := c.appendOp(phase, 0, obj, write); err != nil {
				return err
			}
			if n == 64 || (objs != nil && next == len(objs)) || !c.takeToken() {
				break
			}
		}
		if err := c.flush(from); err != nil {
			return err
		}
	}
	return nil
}

// takeToken takes a window token if one is free, without blocking.
func (c *genConn) takeToken() bool {
	select {
	case <-c.tokens:
		return true
	default:
		return false
	}
}

// waitAcked blocks until every issued request has its ack, or the
// deadline passes; it reports whether the connection drained.
func (c *genConn) waitAcked(deadline time.Time) bool {
	for c.acked.Load() < c.issued.Load() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// receive decodes acks until the connection closes. Values are checked
// in place against their byte pattern (the decode aliases the read
// buffer), so the hot path allocates nothing.
func (c *genConn) receive() {
	defer close(c.recvDone)
	r := bufio.NewReaderSize(c.nc, 256<<10)
	var lenbuf [4]byte
	var body []byte
	var f wire.Frame
	for {
		if _, err := io.ReadFull(r, lenbuf[:]); err != nil {
			c.noteRecvErr(err)
			return
		}
		n := binary.BigEndian.Uint32(lenbuf[:])
		if n > wire.MaxFrameSize {
			c.noteRecvErr(wire.ErrFrameTooLarge)
			return
		}
		if cap(body) < int(n) {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(r, body); err != nil {
			c.noteRecvErr(err)
			return
		}
		if err := f.DecodeFrom(body); err != nil {
			c.noteRecvErr(err)
			return
		}
		t := now()
		env := &f.Env
		if env.ReqID == 0 || env.ReqID > c.issued.Load() || f.EnvelopeCount() != 1 {
			c.unknown.Add(1)
			continue
		}
		_, a := c.rec(env.ReqID - 1)
		if a.recv != 0 {
			c.dups.Add(1)
			continue
		}
		a.recv, a.tag, a.kind = t, env.Tag, env.Kind
		if env.Kind == wire.KindReadAck && (len(env.Value) > 0 || !env.Tag.IsZero()) {
			vid, ok := checkValue(env.Value, c.vsize)
			a.vid, a.bad = vid, !ok
		}
		c.acked.Add(1)
		select {
		case c.tokens <- struct{}{}:
		default:
		}
	}
}

var errClosedLocally = errors.New("closed locally")

// receiveErrors reports acks the receivers could not match to a request
// (unknown or duplicate request ids) and sessions that broke other than
// by a local close. Call it after close.
func (g *gen) receiveErrors() error {
	var errs []error
	for _, c := range g.conns {
		if n := c.unknown.Load(); n > 0 {
			errs = append(errs, fmt.Errorf("connection %d: %d acks with an unknown request id", c.idx, n))
		}
		if n := c.dups.Load(); n > 0 {
			errs = append(errs, fmt.Errorf("connection %d: %d duplicate acks", c.idx, n))
		}
		if e := c.recvErr.Load(); e != nil && !errors.Is(*e, errClosedLocally) {
			errs = append(errs, fmt.Errorf("connection %d: %w", c.idx, *e))
		}
	}
	return errors.Join(errs...)
}

func (c *genConn) noteRecvErr(err error) {
	if errors.Is(err, net.ErrClosed) {
		err = errClosedLocally
	}
	c.recvErr.CompareAndSwap(nil, &err)
}

// gen is the load generator: one connection per server it is pinned to.
type gen struct {
	conns []*genConn
}

// eachConn runs fn once per connection concurrently and returns the
// first error.
func (g *gen) eachConn(fn func(c *genConn) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(g.conns))
	for i, c := range g.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(c)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// drain waits for every connection's outstanding acks.
func (g *gen) drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	ok := true
	for _, c := range g.conns {
		ok = c.waitAcked(deadline) && ok
	}
	return ok
}

func (g *gen) close() {
	for _, c := range g.conns {
		c.close()
	}
}
