package main

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/checker"
	"repro/internal/tag"
	"repro/internal/wire"
)

// histOp is one generator operation as the correctness gate and the
// metrics see it.
type histOp struct {
	sched      int64 // scheduled send (open loop), else the send
	start, end int64 // request sent, ack received (0: never acked)
	tag        tag.Tag
	vid        uint64 // value written, or value the read returned
	obj        uint32
	seq        uint32 // request id - 1 on its connection
	conn       uint8  // generator connection index
	phase      uint8
	kind       wire.Kind // kind of the ack
	write      bool
	bad        bool // read value failed its byte-pattern check
}

func (o *histOp) complete() bool { return o.end != 0 }

// collect reads back every operation of the generator's connections and
// releases each connection's records as it goes. Call it only after the
// connections are closed: their receivers have exited, so every record
// is final.
func (g *gen) collect() []histOp {
	var n uint64
	for _, c := range g.conns {
		n += c.issued.Load()
	}
	out := make([]histOp, 0, n)
	for _, c := range g.conns {
		n := c.issued.Load()
		for seq := uint64(0); seq < n; seq++ {
			op, a := c.rec(seq)
			h := histOp{sched: op.sched, start: op.sent, end: a.recv, tag: a.tag, vid: a.vid,
				obj: op.obj, seq: uint32(seq), conn: uint8(c.idx), phase: op.phase, kind: a.kind,
				write: op.write, bad: a.bad}
			if op.write {
				h.vid = valueID(c.idx, seq)
			}
			out = append(out, h)
		}
		for i := range c.chunks {
			c.chunks[i].Store(nil)
		}
		for _, release := range c.releases {
			release()
		}
		c.releases = nil
	}
	return out
}

// checkHistory is the linearizability gate: every ack has the kind its
// request asked for, every read value passes its byte-pattern check, and
// each object's history passes checker.CheckTagged (tags order every
// completed operation consistently with real time, and each read
// returns exactly the value its tag wrote).
func checkHistory(ops []histOp) error {
	// Group operation indices by object (counting sort).
	var maxObj uint32
	for i := range ops {
		maxObj = max(maxObj, ops[i].obj)
	}
	first := make([]int32, maxObj+2)
	for i := range ops {
		first[ops[i].obj+1]++
	}
	for o := 1; o < len(first); o++ {
		first[o] += first[o-1]
	}
	idx := make([]int32, len(ops))
	fill := append([]int32(nil), first...)
	for i := range ops {
		o := &ops[i]
		if o.complete() {
			want := wire.KindReadAck
			if o.write {
				want = wire.KindWriteAck
			}
			if o.kind != want {
				return fmt.Errorf("object %d: request answered with %s", o.obj, o.kind)
			}
			if !o.write && o.bad {
				return fmt.Errorf("object %d: read returned a corrupt value (id %#x)", o.obj, o.vid)
			}
		}
		idx[fill[o.obj]] = int32(i)
		fill[o.obj]++
	}
	var h []checker.Op
	for obj := 0; obj+1 < len(first); obj++ {
		h = h[:0]
		for _, i := range idx[first[obj]:first[obj+1]] {
			h = append(h, checkerOp(int(i), &ops[i]))
		}
		if err := checker.CheckTagged(h); err != nil {
			return fmt.Errorf("object %d: %w", obj, err)
		}
	}
	return nil
}

func checkerOp(id int, o *histOp) checker.Op {
	op := checker.Op{ID: id, Kind: checker.KindRead, Start: o.start, End: o.end,
		Tag: o.tag, Incomplete: !o.complete()}
	if o.write {
		op.Kind = checker.KindWrite
	}
	if o.vid != 0 {
		op.Value = string(binary.BigEndian.AppendUint64(nil, o.vid))
	}
	return op
}

// plantStaleRead returns the history of one object that has two
// completed writes, with one read appended that starts after every
// operation ended yet returns the object's oldest write — a history the
// gate must refuse. It reports false when no object qualifies.
func plantStaleRead(ops []histOp) ([]histOp, bool) {
	oldest := make(map[uint32]*histOp)
	newer := make(map[uint32]bool)
	var last int64
	for i := range ops {
		o := &ops[i]
		last = max(last, o.end)
		if !o.write || !o.complete() {
			continue
		}
		switch m, ok := oldest[o.obj]; {
		case !ok:
			oldest[o.obj] = o
		case o.tag.Less(m.tag):
			oldest[o.obj], newer[o.obj] = o, true
		case m.tag.Less(o.tag):
			newer[o.obj] = true
		}
	}
	var target *histOp
	for obj := range newer {
		if target == nil || obj < target.obj {
			target = oldest[obj]
		}
	}
	if target == nil {
		return nil, false
	}
	var out []histOp
	for i := range ops {
		if ops[i].obj == target.obj {
			out = append(out, ops[i])
		}
	}
	out = append(out, histOp{obj: target.obj, phase: phaseReadback, start: last + 1, end: last + 2,
		tag: target.tag, vid: target.vid, kind: wire.KindReadAck})
	return out, true
}

// gate runs the history checks and proves on the same data that the
// checker still rejects a falsified history.
func gate(ops []histOp) error {
	if err := checkHistory(ops); err != nil {
		return err
	}
	planted, ok := plantStaleRead(ops)
	if !ok {
		return errors.New("gate self-test: no object has two completed writes to falsify")
	}
	if checkHistory(planted) == nil {
		return errors.New("gate self-test: a planted stale read passed the checker")
	}
	return nil
}
