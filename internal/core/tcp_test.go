package core_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/tcpnet"
	"repro/internal/wire"
)

// tcpCluster is an end-to-end deployment over real TCP on loopback.
type tcpCluster struct {
	t       *testing.T
	members []wire.ProcessID
	book    tcpnet.AddressBook
	servers map[wire.ProcessID]*core.Server
	eps     map[wire.ProcessID]*tcpnet.Endpoint

	mu   sync.Mutex
	next wire.ProcessID
}

// newTCPCluster binds n servers to ephemeral loopback ports. Because the
// address book must be complete before servers dial their successors,
// ports are reserved first, then every server starts with the full book.
func newTCPCluster(t *testing.T, n int) *tcpCluster {
	t.Helper()
	c := &tcpCluster{
		t:       t,
		book:    make(tcpnet.AddressBook),
		servers: make(map[wire.ProcessID]*core.Server),
		eps:     make(map[wire.ProcessID]*tcpnet.Endpoint),
		next:    1000,
	}
	// Reserve addresses.
	tmp := make(map[wire.ProcessID]*tcpnet.Endpoint)
	for i := 1; i <= n; i++ {
		id := wire.ProcessID(i)
		c.members = append(c.members, id)
		ep, err := tcpnet.Listen(id, "127.0.0.1:0", nil, tcpnet.Options{})
		if err != nil {
			t.Fatal(err)
		}
		c.book[id] = ep.Addr()
		tmp[id] = ep
	}
	for _, ep := range tmp {
		_ = ep.Close()
	}
	// Start for real with the complete book.
	for _, id := range c.members {
		ep, err := tcpnet.Listen(id, c.book[id], c.book, tcpnet.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := core.NewServer(core.Config{ID: id, Members: c.members}, ep)
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		c.servers[id] = srv
		c.eps[id] = ep
	}
	t.Cleanup(func() {
		for id, srv := range c.servers {
			srv.Stop()
			_ = c.eps[id].Close()
		}
	})
	return c
}

// crash closes one server's endpoint: peers observe broken connections,
// which the TCP transport reports as a crash.
func (c *tcpCluster) crash(id wire.ProcessID) {
	c.t.Helper()
	srv := c.servers[id]
	ep := c.eps[id]
	delete(c.servers, id)
	delete(c.eps, id)
	_ = ep.Close()
	srv.Stop()
}

// newClient attaches a TCP client.
func (c *tcpCluster) newClient(timeout time.Duration) *client.Client {
	c.t.Helper()
	c.mu.Lock()
	c.next++
	id := c.next
	c.mu.Unlock()
	ep := tcpnet.NewClient(id, c.book, tcpnet.Options{})
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	cl, err := client.New(ep, client.Options{Servers: c.members, AttemptTimeout: timeout})
	if err != nil {
		c.t.Fatal(err)
	}
	c.t.Cleanup(func() {
		_ = cl.Close()
		_ = ep.Close()
	})
	return cl
}

func TestTCPWriteThenReadEverywhere(t *testing.T) {
	c := newTCPCluster(t, 3)
	cl := c.newClient(0)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	wtag, err := cl.Write(ctx, 0, []byte("over-tcp"))
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	for range c.members {
		got, rtag, err := cl.Read(ctx, 0)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if string(got) != "over-tcp" || rtag != wtag {
			t.Fatalf("read %q tag %s, want over-tcp tag %s", got, rtag, wtag)
		}
	}
}

func TestTCPConcurrentMixedLoadLinearizable(t *testing.T) {
	c := newTCPCluster(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rec := &opRecorder{}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		cl := c.newClient(0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				v := fmt.Sprintf("w%d-%d", w, i)
				start := time.Now().UnixNano()
				tg, err := cl.Write(ctx, 0, []byte(v))
				if err != nil {
					t.Errorf("write: %v", err)
					return
				}
				rec.add(checker.Op{Kind: checker.KindWrite, Value: v, Start: start, End: time.Now().UnixNano(), Tag: tg})
			}
		}()
	}
	for r := 0; r < 3; r++ {
		cl := c.newClient(0)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				start := time.Now().UnixNano()
				v, tg, err := cl.Read(ctx, 0)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				rec.add(checker.Op{Kind: checker.KindRead, Value: string(v), Start: start, End: time.Now().UnixNano(), Tag: tg})
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := checker.CheckTagged(rec.history()); err != nil {
		t.Fatalf("TCP history not atomic: %v", err)
	}
}

func TestTCPCrashRecovery(t *testing.T) {
	c := newTCPCluster(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cl := c.newClient(time.Second)

	if _, err := cl.Write(ctx, 0, []byte("before")); err != nil {
		t.Fatalf("write before crash: %v", err)
	}
	c.crash(2)
	// The surviving ring must keep serving; the first writes may race
	// the failure detection, so allow retries.
	deadline := time.Now().Add(20 * time.Second)
	for {
		_, err := cl.Write(ctx, 0, []byte("after"))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("write never succeeded after crash: %v", err)
		}
	}
	got, _, err := cl.Read(ctx, 0)
	if err != nil {
		t.Fatalf("read after crash: %v", err)
	}
	if string(got) != "after" {
		t.Fatalf("read %q, want after", got)
	}
}

func TestTCPLargeValues(t *testing.T) {
	c := newTCPCluster(t, 2)
	cl := c.newClient(10 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	val := make([]byte, 256<<10)
	for i := range val {
		val[i] = byte(i * 31)
	}
	if _, err := cl.Write(ctx, 0, val); err != nil {
		t.Fatalf("large write: %v", err)
	}
	got, _, err := cl.Read(ctx, 0)
	if err != nil {
		t.Fatalf("large read: %v", err)
	}
	if len(got) != len(val) {
		t.Fatalf("read %d bytes, want %d", len(got), len(val))
	}
	for i := 0; i < len(val); i += 4093 {
		if got[i] != val[i] {
			t.Fatalf("corruption at byte %d", i)
		}
	}
}

// TestTCPStoredValuesRightSized pins the replica memory cost of a
// stored value: every server keeps each object's value in a buffer of
// the value's size class, not in a transport scratch buffer, so a
// 128 B value costs at most twice its length on every replica. It
// checks capacities only, with no timing or heap sampling.
func TestTCPStoredValuesRightSized(t *testing.T) {
	const (
		objects   = 1024
		valueSize = 128
		writers   = 8
	)
	c := newTCPCluster(t, 3)
	clients := make([]*client.Client, writers)
	for i := range clients {
		clients[i] = c.newClient(0)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	for w, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for obj := w; obj < objects; obj += writers {
				val := make([]byte, valueSize)
				val[0] = byte(obj)
				if _, err := cl.Write(ctx, wire.ObjectID(obj), val); err != nil {
					t.Errorf("write object %d: %v", obj, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, id := range c.members {
		srv := c.servers[id]
		for obj := wire.ObjectID(0); obj < objects; obj++ {
			// A write is acked once its write phase returned to the
			// origin, so every replica has already installed it.
			v := srv.StoredValue(obj)
			if len(v) != valueSize || v[0] != byte(obj) {
				t.Fatalf("server %d object %d: stored %d bytes, want the %d B write", id, obj, len(v), valueSize)
			}
			if cap(v) > 2*len(v) {
				t.Fatalf("server %d object %d: stored value cap %d for len %d, want <= %d",
					id, obj, cap(v), len(v), 2*len(v))
			}
		}
	}
}
