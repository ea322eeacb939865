package main

import (
	"context"
	"fmt"
	"time"

	"repro/atomicstore"
)

// libConn is the connection index the library client's value ids use,
// distinct from every generator connection.
const libConn = 200

// libClient is a low-rate atomicstore.Dial client running beside the
// load: it times the library's own cost per operation. It alternates a
// write and a read of private objects the generator never touches, and
// checks that each read returns at least the version it just wrote.
type libClient struct {
	cli   *atomicstore.Client
	w     *workload
	stopc chan struct{}
	done  chan struct{}
	res   libResult
	err   error
}

type libResult struct {
	readNs, writeNs []int64
	attempts        int
}

// libInterval paces the library client: one write and one read per tick.
const libInterval = 10 * time.Millisecond

func startLibClient(c *cluster, w *workload) (*libClient, error) {
	ring := make([]atomicstore.Member, len(c.members))
	for i, id := range c.members {
		ring[i] = atomicstore.Member{ID: id, Addr: c.addrs[i]}
	}
	cli, err := atomicstore.Dial(ring, atomicstore.WithClientID(libClientID),
		atomicstore.WithPinnedServer(c.members[len(c.members)-1]))
	if err != nil {
		return nil, fmt.Errorf("library client: %w", err)
	}
	l := &libClient{cli: cli, w: w, stopc: make(chan struct{}), done: make(chan struct{})}
	go l.loop()
	return l, nil
}

func (l *libClient) loop() {
	defer close(l.done)
	tick := time.NewTicker(libInterval)
	defer tick.Stop()
	val := make([]byte, l.w.valueSize)
	for n := uint64(0); ; n++ {
		select {
		case <-l.stopc:
			return
		case <-tick.C:
		}
		obj := atomicstore.ObjectID(l.w.objects + int(n%4))
		fillValue(val, valueID(libConn, n))
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		t0 := now()
		wt, attempts, err := l.cli.WriteDetailed(ctx, obj, val)
		t1 := now()
		var got []byte
		var rt atomicstore.Version
		if err == nil {
			got, rt, err = l.cli.Read(ctx, obj)
		}
		t2 := now()
		cancel()
		if err != nil {
			l.err = fmt.Errorf("library client: %w", err)
			return
		}
		if _, ok := checkValue(got, l.w.valueSize); !ok || rt.Less(wt) {
			l.err = fmt.Errorf("library client: read of object %d returned tag %s after writing %s", obj, rt, wt)
			return
		}
		l.res.writeNs = append(l.res.writeNs, t1-t0)
		l.res.readNs = append(l.res.readNs, t2-t1)
		l.res.attempts += attempts
	}
}

// stop ends the loop, closes the client and returns its samples; err is
// set when an operation failed or read back wrong.
func (l *libClient) stop() libResult {
	close(l.stopc)
	<-l.done
	_ = l.cli.Close() // every operation has returned; nothing is in flight
	return l.res
}
