package main

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/tcpnet"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wire"
)

// cluster is an in-process ring of core servers over loopback tcpnet,
// each built exactly as a deployment builds it: core.NewServer with the
// default lanes and train length over a session endpoint. When a
// recorder is given, each server's endpoint is wrapped in a
// tracedEndpoint.
type cluster struct {
	members []wire.ProcessID
	addrs   []string
	eps     []*tcpnet.Endpoint
	srvs    []*core.Server
	walDirs []string // nil without a WAL
	// openNs is how long each core.NewServer took; with a WAL it is
	// the log's open and replay.
	openNs []int64
}

// startCluster starts n servers (ids 1..n) and opens every ring session.
// walRoot, when non-empty, gives each server a WAL directory under it in
// wal.SyncTrain mode; existing logs there are replayed.
func startCluster(n int, walRoot string, rec *recorder) (*cluster, error) {
	c := &cluster{}
	for i := 1; i <= n; i++ {
		c.members = append(c.members, wire.ProcessID(i))
		if walRoot != "" {
			c.walDirs = append(c.walDirs, filepath.Join(walRoot, fmt.Sprintf("s%d", i)))
		}
	}
	book := make(tcpnet.AddressBook, n)
	for _, id := range c.members {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		c.addrs = append(c.addrs, addr)
		book[id] = addr
	}
	for i, id := range c.members {
		cfg := core.Config{ID: id, Members: c.members}
		if c.walDirs != nil {
			cfg.WAL = wal.Config{Dir: c.walDirs[i], Sync: wal.SyncTrain}
		}
		hello := cfg.SessionHello()
		ep, err := tcpnet.Listen(id, c.addrs[i], book, tcpnet.Options{Hello: &hello})
		if err != nil {
			c.stop(false)
			return nil, err
		}
		c.eps = append(c.eps, ep)
		var tep transport.Endpoint = ep
		if rec != nil {
			tep = &tracedEndpoint{ep: ep, srv: i, rec: rec}
		}
		t0 := now()
		srv, err := core.NewServer(cfg, tep)
		if err != nil {
			c.stop(false)
			return nil, fmt.Errorf("server %d: %w", id, err)
		}
		c.openNs = append(c.openNs, now()-t0)
		srv.Start()
		c.srvs = append(c.srvs, srv)
	}
	for i, ep := range c.eps {
		if err := ep.Handshake(c.members[(i+1)%n]); err != nil {
			c.stop(false)
			return nil, fmt.Errorf("ring session %d->%d: %w", c.members[i], c.members[(i+1)%n], err)
		}
	}
	return c, nil
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// stop stops every server and closes its endpoint. kill drops WAL
// records not yet covered by a sync, as a crash at this instant would.
// The process keeps running, so the page cache keeps every byte already
// written: a restart after kill proves replay of what was synced or
// written, not the ordering of the send gate against a power loss.
func (c *cluster) stop(kill bool) {
	for _, s := range c.srvs {
		if kill {
			s.Kill()
		} else {
			s.Stop()
		}
	}
	for _, ep := range c.eps {
		_ = ep.Close() // tcpnet's Close always returns nil
	}
	c.srvs, c.eps = nil, nil
}

// counters sums every server's robustness and path counters.
func (c *cluster) counters() core.CounterSnapshot {
	var sum core.CounterSnapshot
	for _, s := range c.srvs {
		x := s.CounterSnapshot()
		sum.LaneDrops += x.LaneDrops
		sum.AckSendFailures += x.AckSendFailures
		sum.RecoveryBufferLeaks += x.RecoveryBufferLeaks
		sum.WALTornTails += x.WALTornTails
		sum.AckFastPath += x.AckFastPath
		sum.AckQueued += x.AckQueued
		sum.AckLanes += x.AckLanes
		sum.RingFrames += x.RingFrames
		sum.RingEnvelopes += x.RingEnvelopes
	}
	return sum
}

// walStats sums every server's WAL counters.
func (c *cluster) walStats() wal.Stats {
	var sum wal.Stats
	for _, s := range c.srvs {
		x := s.WALStats()
		sum.Appends += x.Appends
		sum.AppendBytes += x.AppendBytes
		sum.Syncs += x.Syncs
		sum.Replayed += x.Replayed
	}
	return sum
}

// dial connects one generator connection per server in pins.
func (c *cluster) dial(pins []int, w *workload, seed uint64, firstID wire.ProcessID) (*gen, error) {
	g := &gen{}
	for i, p := range pins {
		gc, err := dialGen(i, firstID+wire.ProcessID(i), c.members[p], c.addrs[p], c.members, w, seed)
		if err != nil {
			g.close()
			return nil, err
		}
		g.conns = append(g.conns, gc)
	}
	return g, nil
}

// checkCounters fails when any server counted a dropped ring frame, a
// failed client ack, or a leaked recovery buffer.
func checkCounters(x core.CounterSnapshot) error {
	if x.LaneDrops != 0 || x.AckSendFailures != 0 || x.RecoveryBufferLeaks != 0 {
		return fmt.Errorf("server counters: LaneDrops=%d AckSendFailures=%d RecoveryBufferLeaks=%d",
			x.LaneDrops, x.AckSendFailures, x.RecoveryBufferLeaks)
	}
	return nil
}

// waitEncodedBaseline polls until every pooled encoded frame the
// transports handed out has been released again.
func waitEncodedBaseline(base int64) error {
	deadline := time.Now().Add(3 * time.Second)
	for wire.EncodedFramesLive() != base {
		if time.Now().After(deadline) {
			return fmt.Errorf("wire.EncodedFramesLive() = %d after teardown, baseline %d",
				wire.EncodedFramesLive(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

var errNotDrained = errors.New("requests still unacknowledged at the drain deadline")
