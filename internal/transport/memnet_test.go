package transport

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

func newFrame(req uint64) wire.Frame {
	return wire.NewFrame(wire.Envelope{Kind: wire.KindReadRequest, ReqID: req})
}

func TestRegisterValidation(t *testing.T) {
	n := NewMemNetwork(MemNetworkOptions{})
	if _, err := n.Register(wire.NoProcess); err == nil {
		t.Error("registering NoProcess should fail")
	}
	if _, err := n.Register(1); err != nil {
		t.Fatalf("register: %v", err)
	}
	if _, err := n.Register(1); err == nil {
		t.Error("duplicate registration should fail")
	}
}

func TestSendReceive(t *testing.T) {
	n := NewMemNetwork(MemNetworkOptions{})
	a, _ := n.Register(1)
	b, _ := n.Register(2)
	if err := a.Send(2, newFrame(7)); err != nil {
		t.Fatal(err)
	}
	got := <-b.Inbox()
	if got.From != 1 || got.Frame.Env.ReqID != 7 {
		t.Fatalf("received %+v", got)
	}
}

func TestSelfSend(t *testing.T) {
	n := NewMemNetwork(MemNetworkOptions{})
	a, _ := n.Register(1)
	if err := a.Send(1, newFrame(3)); err != nil {
		t.Fatal(err)
	}
	got := <-a.Inbox()
	if got.From != 1 || got.Frame.Env.ReqID != 3 {
		t.Fatalf("received %+v", got)
	}
}

func TestSendToUnknownPeer(t *testing.T) {
	n := NewMemNetwork(MemNetworkOptions{})
	a, _ := n.Register(1)
	if err := a.Send(42, newFrame(1)); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("err = %v, want ErrPeerDown", err)
	}
}

func TestSendAfterLocalClose(t *testing.T) {
	n := NewMemNetwork(MemNetworkOptions{})
	a, _ := n.Register(1)
	if _, err := n.Register(2); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, newFrame(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	select {
	case <-a.Done():
	default:
		t.Fatal("Done should be closed after Close")
	}
}

func TestCrashNotifiesEveryoneElse(t *testing.T) {
	n := NewMemNetwork(MemNetworkOptions{})
	a, _ := n.Register(1)
	b, _ := n.Register(2)
	c, _ := n.Register(3)
	n.Crash(2)

	for _, ep := range []*MemEndpoint{a, c} {
		select {
		case got := <-ep.Failures():
			if got != 2 {
				t.Fatalf("endpoint %d saw crash of %d, want 2", ep.ID(), got)
			}
		case <-time.After(time.Second):
			t.Fatalf("endpoint %d did not hear about the crash", ep.ID())
		}
	}
	select {
	case got := <-b.Failures():
		t.Fatalf("crashed endpoint received failure notice %d", got)
	default:
	}
}

// TestCrashManyIsSimultaneous: crashing several processes in one call
// takes them off the network together, so no victim is told of
// another's crash (a victim that heard would splice it out and keep
// serving in between), while every survivor hears of each.
func TestCrashManyIsSimultaneous(t *testing.T) {
	n := NewMemNetwork(MemNetworkOptions{})
	a, _ := n.Register(1)
	b, _ := n.Register(2)
	c, _ := n.Register(3)
	n.Crash(1, 2)

	for _, victim := range []*MemEndpoint{a, b} {
		select {
		case got := <-victim.Failures():
			t.Fatalf("crashed endpoint %d received failure notice %d", victim.ID(), got)
		default:
		}
	}
	seen := map[wire.ProcessID]bool{}
	for len(seen) < 2 {
		select {
		case got := <-c.Failures():
			seen[got] = true
		case <-time.After(time.Second):
			t.Fatalf("survivor heard of %v, want crashes of 1 and 2", seen)
		}
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("survivor heard of %v, want crashes of 1 and 2", seen)
	}
}

func TestSendToCrashedPeer(t *testing.T) {
	n := NewMemNetwork(MemNetworkOptions{})
	a, _ := n.Register(1)
	if _, err := n.Register(2); err != nil {
		t.Fatal(err)
	}
	n.Crash(2)
	if err := a.Send(2, newFrame(1)); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("err = %v, want ErrPeerDown", err)
	}
}

func TestCrashUnblocksPendingSender(t *testing.T) {
	n := NewMemNetwork(MemNetworkOptions{InboxCapacity: 1})
	a, _ := n.Register(1)
	if _, err := n.Register(2); err != nil {
		t.Fatal(err)
	}
	// Fill the inbox, then start a blocked send.
	if err := a.Send(2, newFrame(1)); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- a.Send(2, newFrame(2)) }()
	time.Sleep(10 * time.Millisecond) // let the send block
	n.Crash(2)
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrPeerDown) {
			t.Fatalf("err = %v, want ErrPeerDown", err)
		}
	case <-time.After(time.Second):
		t.Fatal("blocked sender was not released by the crash")
	}
}

func TestBackpressureBlocksUntilDrained(t *testing.T) {
	n := NewMemNetwork(MemNetworkOptions{InboxCapacity: 2})
	a, _ := n.Register(1)
	b, _ := n.Register(2)
	for i := 0; i < 2; i++ {
		if err := a.Send(2, newFrame(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = a.Send(2, newFrame(99))
	}()
	select {
	case <-done:
		t.Fatal("send should have blocked on a full inbox")
	case <-time.After(20 * time.Millisecond):
	}
	<-b.Inbox() // drain one slot
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("send did not complete after the inbox drained")
	}
}

func TestConcurrentSendersAllDelivered(t *testing.T) {
	const senders, perSender = 8, 100
	n := NewMemNetwork(MemNetworkOptions{InboxCapacity: 4})
	dst, _ := n.Register(1)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ep, err := n.Register(wire.ProcessID(10 + s))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := ep.Send(1, newFrame(uint64(i))); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	got := 0
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for got < senders*perSender {
			<-dst.Inbox()
			got++
		}
	}()
	wg.Wait()
	select {
	case <-recvDone:
	case <-time.After(5 * time.Second):
		t.Fatalf("received %d of %d messages", got, senders*perSender)
	}
}

func TestCrashUnknownIsNoop(t *testing.T) {
	n := NewMemNetwork(MemNetworkOptions{})
	if _, err := n.Register(1); err != nil {
		t.Fatal(err)
	}
	n.Crash(42) // must not panic or notify
	n.Crash(42)
}

func TestBatchedModeDeliversInOrder(t *testing.T) {
	n := NewMemNetwork(MemNetworkOptions{SendQueueCapacity: 16, MaxBatchFrames: 8})
	a, _ := n.Register(1)
	b, _ := n.Register(2)
	const total = 300
	go func() {
		for i := 0; i < total; i++ {
			if err := a.Send(2, newFrame(uint64(i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < total; i++ {
		select {
		case got := <-b.Inbox():
			if got.Frame.Env.ReqID != uint64(i) {
				t.Fatalf("frame %d arrived with req %d (batching must keep FIFO)", i, got.Frame.Env.ReqID)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("stalled at frame %d", i)
		}
	}
}

func TestBatchedModeSendBlocksOnLocalQueue(t *testing.T) {
	// With a crashed-but-once-known destination, batched Send still
	// accepts frames until the local queue fills — mirroring TCP, where
	// queued frames are lost when the connection later breaks.
	n := NewMemNetwork(MemNetworkOptions{SendQueueCapacity: 16, InboxCapacity: 1})
	a, _ := n.Register(1)
	if _, err := n.Register(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := a.Send(2, newFrame(uint64(i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	n.Crash(2)
	// Destination gone before dialing-equivalent lookup: Send now fails.
	if err := a.Send(2, newFrame(99)); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("err = %v, want ErrPeerDown", err)
	}
}

func TestBatchedModeCloseReleasesSender(t *testing.T) {
	n := NewMemNetwork(MemNetworkOptions{SendQueueCapacity: 1, InboxCapacity: 1})
	a, _ := n.Register(1)
	if _, err := n.Register(2); err != nil {
		t.Fatal(err)
	}
	// Saturate: inbox (1) + in-flight batch (1) + queue (1), then one more blocks.
	for i := 0; i < 3; i++ {
		_ = a.Send(2, newFrame(uint64(i)))
	}
	errCh := make(chan error, 1)
	go func() { errCh <- a.Send(2, newFrame(9)) }()
	time.Sleep(10 * time.Millisecond)
	_ = a.Close()
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want nil or ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("blocked batched sender was not released by Close")
	}
}

func TestBatchedModeNoCrossDestinationBlocking(t *testing.T) {
	// A full, undrained destination must not delay frames bound for a
	// different destination — tcpnet has one queue+writer per peer, and
	// the batched memnet mirrors that.
	n := NewMemNetwork(MemNetworkOptions{SendQueueCapacity: 2, InboxCapacity: 1})
	a, _ := n.Register(1)
	if _, err := n.Register(2); err != nil { // slow: never drained
		t.Fatal(err)
	}
	c, _ := n.Register(3)
	// Wedge destination 2: inbox (1) + in-flight (1) + queue (2) all full.
	for i := 0; i < 4; i++ {
		if err := a.Send(2, newFrame(uint64(i))); err != nil {
			t.Fatalf("send to slow peer %d: %v", i, err)
		}
	}
	// Frames to destination 3 must still flow.
	if err := a.Send(3, newFrame(99)); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-c.Inbox():
		if got.Frame.Env.ReqID != 99 {
			t.Fatalf("got req %d", got.Frame.Env.ReqID)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("frame to idle destination stuck behind a wedged peer")
	}
}

// TestBatchedModeEncodeAtEnqueue pins the tcpnet-mirroring egress
// semantics: with EncodeAtEnqueue the producing goroutine encodes each
// queued frame into a pooled buffer, delivery still hands over the
// frame value unchanged (order and content intact), and every pooled
// buffer is back in the pool once the network quiesces — including the
// ones stranded in queues when an endpoint closes.
func TestBatchedModeEncodeAtEnqueue(t *testing.T) {
	base := wire.EncodedFramesLive()
	n := NewMemNetwork(MemNetworkOptions{SendQueueCapacity: 16, MaxBatchFrames: 8, InboxCapacity: 1, EncodeAtEnqueue: true})
	a, _ := n.Register(1)
	b, _ := n.Register(2)
	const total = 300
	go func() {
		for i := 0; i < total; i++ {
			f := newFrame(uint64(i))
			f.Env.Value = []byte("payload")
			if err := a.Send(2, f); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < total; i++ {
		select {
		case got := <-b.Inbox():
			if got.Frame.Env.ReqID != uint64(i) || string(got.Frame.Env.Value) != "payload" {
				t.Fatalf("frame %d arrived as req %d value %q", i, got.Frame.Env.ReqID, got.Frame.Env.Value)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("stalled at frame %d", i)
		}
	}
	// TrySend takes the same encode-at-enqueue path.
	if !a.TrySend(2, newFrame(999)) {
		t.Fatal("TrySend refused an established, empty queue")
	}
	select {
	case got := <-b.Inbox():
		if got.Frame.Env.ReqID != 999 {
			t.Fatalf("TrySend frame arrived as req %d", got.Frame.Env.ReqID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("TrySend frame never arrived")
	}
	// Strand frames: stop reading b, push a burst until the queue backs
	// up, and close a mid-flight. The blocked Send's error path and the
	// sender goroutine's final drain must release every encoded buffer.
	burst := make(chan struct{})
	go func() {
		defer close(burst)
		for i := 0; i < 50; i++ {
			if a.Send(2, newFrame(uint64(i))) != nil {
				return
			}
		}
	}()
	time.Sleep(10 * time.Millisecond) // let the queue fill behind the unread inbox
	_ = a.Close()
	<-burst
	deadline := time.Now().Add(5 * time.Second)
	for wire.EncodedFramesLive() != base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := wire.EncodedFramesLive(); got != base {
		t.Fatalf("encoded frames leaked: live = %d, started at %d", got, base)
	}
}
