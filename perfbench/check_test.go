package main

import (
	"strings"
	"testing"

	"repro/internal/tag"
	"repro/internal/wire"
)

// validHistory is two sequential writes of one object, each read back.
func validHistory() []histOp {
	t1, t2 := tag.Tag{TS: 1, ID: 1}, tag.Tag{TS: 2, ID: 1}
	v1, v2 := valueID(0, 0), valueID(0, 2)
	return []histOp{
		{obj: 7, write: true, start: 0, end: 10, tag: t1, vid: v1, kind: wire.KindWriteAck},
		{obj: 7, start: 20, end: 30, tag: t1, vid: v1, kind: wire.KindReadAck},
		{obj: 7, write: true, start: 40, end: 50, tag: t2, vid: v2, kind: wire.KindWriteAck},
		{obj: 7, start: 60, end: 70, tag: t2, vid: v2, kind: wire.KindReadAck},
		{obj: 8, start: 5, end: 6, kind: wire.KindReadAck}, // initial value
	}
}

func TestGateAcceptsValidHistory(t *testing.T) {
	if err := gate(validHistory()); err != nil {
		t.Fatal(err)
	}
}

// TestGateRejectsFalsifiedHistories plants one defect at a time; each
// must fail the gate.
func TestGateRejectsFalsifiedHistories(t *testing.T) {
	for name, mutate := range map[string]func(h []histOp) []histOp{
		"stale read": func(h []histOp) []histOp {
			h[3].tag, h[3].vid = h[0].tag, h[0].vid
			return h
		},
		"value not written at its tag": func(h []histOp) []histOp {
			h[1].vid = h[2].vid
			return h
		},
		"corrupt value bytes": func(h []histOp) []histOp {
			h[1].bad = true
			return h
		},
		"ack of the wrong kind": func(h []histOp) []histOp {
			h[0].kind = wire.KindReadAck
			return h
		},
		"two writes share a tag": func(h []histOp) []histOp {
			h[2].tag = h[0].tag
			return h
		},
	} {
		if err := checkHistory(mutate(validHistory())); err == nil {
			t.Errorf("%s: gate passed", name)
		}
	}
}

// TestPlantedStaleReadFails is the self-test the gate runs on every
// real history.
func TestPlantedStaleReadFails(t *testing.T) {
	planted, ok := plantStaleRead(validHistory())
	if !ok {
		t.Fatal("no object to falsify")
	}
	if err := checkHistory(planted); err == nil || !strings.Contains(err.Error(), "behind") {
		t.Fatalf("planted stale read: %v", err)
	}
	if _, ok := plantStaleRead(validHistory()[:2]); ok {
		t.Fatal("planted a stale read without two writes")
	}
}

func TestValuePattern(t *testing.T) {
	for _, size := range []int{13, 16, 128, 1024} {
		v := make([]byte, size)
		fillValue(v, valueID(1, 42))
		if vid, ok := checkValue(v, size); !ok || vid != valueID(1, 42) {
			t.Fatalf("size %d: round trip failed", size)
		}
		for i := range v {
			v[i] ^= 1
			if _, ok := checkValue(v, size); ok {
				t.Fatalf("size %d: flipped byte %d passed", size, i)
			}
			v[i] ^= 1
		}
		if _, ok := checkValue(v[:size-1], size); ok {
			t.Fatalf("size %d: short value passed", size)
		}
	}
}
