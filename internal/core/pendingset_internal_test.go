package core

import (
	"math/rand"
	"testing"

	"repro/internal/tag"
	"repro/internal/wire"
)

// pendingModelEntry mirrors one pendingSet entry in the reference model.
type pendingModelEntry struct {
	value  []byte
	pooled bool
}

// checkAgainstModel asserts the sorted pending set agrees with the map
// reference model on every observable: size, max, membership, values,
// pooled marks, ordering.
func checkAgainstModel(t *testing.T, p *pendingSet, model map[tag.Tag]pendingModelEntry) {
	t.Helper()
	if p.size() != len(model) {
		t.Fatalf("size = %d, model has %d", p.size(), len(model))
	}
	var wantMax tag.Tag
	for mt := range model {
		wantMax = wantMax.Max(mt)
	}
	if got := p.max(); got != wantMax {
		t.Fatalf("max = %s, model says %s", got, wantMax)
	}
	prev := tag.Tag{}
	for i := range p.entries {
		e := &p.entries[i]
		if i > 0 && !prev.Less(e.tag) {
			t.Fatalf("entries not strictly sorted: %s then %s", prev, e.tag)
		}
		prev = e.tag
		me, ok := model[e.tag]
		if !ok {
			t.Fatalf("entry %s not in model", e.tag)
		}
		if string(me.value) != string(e.value) || me.pooled != e.pooled {
			t.Fatalf("entry %s = (%q, pooled=%v), model says (%q, pooled=%v)",
				e.tag, e.value, e.pooled, me.value, me.pooled)
		}
		if v, ok := p.get(e.tag); !ok || string(v) != string(me.value) {
			t.Fatalf("get(%s) = (%q, %v)", e.tag, v, ok)
		}
		if p.pooled(e.tag) != me.pooled {
			t.Fatalf("pooled(%s) = %v, model says %v", e.tag, p.pooled(e.tag), me.pooled)
		}
	}
	// Absent tags stay absent.
	if _, ok := p.get(tag.Tag{TS: 1 << 40, ID: 7}); ok {
		t.Fatal("get of absent tag succeeded")
	}
}

// TestPendingSetAgainstMapModel drives random add / duplicate-add / drop
// / clearPooled / prefix-prune sequences against a map reference model
// (the structure the sorted slice replaced) and checks the observables
// after every operation.
func TestPendingSetAgainstMapModel(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var p pendingSet
		model := make(map[tag.Tag]pendingModelEntry)
		randTag := func() tag.Tag {
			return tag.Tag{TS: uint64(1 + rng.Intn(12)), ID: uint32(1 + rng.Intn(3))}
		}
		for op := 0; op < 600; op++ {
			switch rng.Intn(5) {
			case 0, 1: // add (duplicates: first copy must win)
				tg := randTag()
				val := []byte{byte(op), byte(op >> 8)}
				pooled := rng.Intn(2) == 0
				inserted := p.add(tg, val, pooled)
				if _, exists := model[tg]; exists == inserted {
					t.Fatalf("seed %d op %d: add(%s) inserted=%v but model exists=%v",
						seed, op, tg, inserted, exists)
				}
				if inserted {
					model[tg] = pendingModelEntry{value: val, pooled: pooled}
				}
			case 2: // drop exact
				tg := randTag()
				p.drop(tg)
				delete(model, tg)
			case 3: // clearPooled
				tg := randTag()
				p.clearPooled(tg)
				if me, ok := model[tg]; ok {
					me.pooled = false
					model[tg] = me
				}
			case 4: // prefix prune (no retirement — that is objectState.prune's job)
				tg := randTag()
				n := p.prefixLen(tg)
				for mt := range model {
					if mt.LessEq(tg) {
						n--
						delete(model, mt)
					}
				}
				if n != 0 {
					t.Fatalf("seed %d op %d: prefixLen(%s) disagrees with model by %d", seed, op, tg, n)
				}
				p.dropPrefix(p.prefixLen(tg))
			}
			checkAgainstModel(t, &p, model)
		}
	}
}

// TestPendingSetSteadyStateNoAlloc pins the zero-churn property: once
// the backing array has grown to the working depth, add/prune cycles
// allocate nothing.
func TestPendingSetSteadyStateNoAlloc(t *testing.T) {
	var p pendingSet
	val := []byte("v")
	ts := uint64(0)
	// Warm the backing array to depth 8.
	for i := 0; i < 8; i++ {
		ts++
		p.add(tag.Tag{TS: ts, ID: 1}, val, false)
	}
	p.dropPrefix(p.size())
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 8; i++ {
			ts++
			p.add(tag.Tag{TS: ts, ID: 1}, val, false)
		}
		p.dropPrefix(p.prefixLen(tag.Tag{TS: ts, ID: 1}))
	})
	if allocs != 0 {
		t.Fatalf("steady-state add/prune allocates %.1f/op, want 0", allocs)
	}
}

// TestPendingSetPruneZeroesVacatedSlots guards against value slices
// lingering in the backing array past the logical length.
func TestPendingSetPruneZeroesVacatedSlots(t *testing.T) {
	var p pendingSet
	for i := 1; i <= 4; i++ {
		p.add(tag.Tag{TS: uint64(i), ID: 1}, []byte{byte(i)}, true)
	}
	p.dropPrefix(p.prefixLen(tag.Tag{TS: 3, ID: 1}))
	tail := p.entries[len(p.entries):cap(p.entries)]
	for i := range tail {
		if tail[i].value != nil || tail[i].pooled || !tail[i].tag.IsZero() {
			t.Fatalf("vacated slot %d not zeroed: %+v", i, tail[i])
		}
	}
}

// TestObjectStatePooledRetirement verifies the ownership rule the sorted
// set must preserve (DESIGN.md §7/§10): pruning the exact tag of a
// pooled entry returns its buffer to the value pool — observable as the
// next pooled decode of a value in the same size class handing back the
// same backing array on this goroutine — while prefix-pruned entries
// below the written tag leak to the GC, and an entry whose slice became
// the stored value is never retired.
func TestObjectStatePooledRetirement(t *testing.T) {
	// newPooled takes a one-byte value from the value pool the way the
	// TCP reader does: a pooled decode, so every value lands in the 64 B
	// class.
	newPooled := func(b byte) []byte {
		f := wire.NewFrame(wire.Envelope{Kind: wire.KindPreWrite, Origin: 1, Tag: tag.Tag{TS: 1, ID: 1}, Value: []byte{b}})
		buf, err := wire.AppendFrame(nil, &f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := wire.DecodeFrameBodyPooled(buf[4:])
		if err != nil {
			t.Fatal(err)
		}
		if !got.Env.ValuePooled() {
			t.Fatal("pooled decode did not mark the value")
		}
		return got.Env.Value
	}
	samePool := func(v []byte) bool {
		got := newPooled(0)
		same := sameSlice(got[:1:1], v[:1:1])
		wire.PutValue(got)
		return same
	}

	o := newObjectState()
	low := newPooled('a')
	exact := newPooled('b')
	o.addPending(tag.Tag{TS: 1, ID: 2}, low, true)
	o.addPending(tag.Tag{TS: 2, ID: 2}, exact, true)
	o.apply(tag.Tag{TS: 2, ID: 2}, []byte("other"))
	o.prune(tag.Tag{TS: 2, ID: 2})
	if o.pending.size() != 0 {
		t.Fatalf("pending size = %d after prune", o.pending.size())
	}
	// The exact-tag entry was retired last: the pool's per-P slot holds
	// its buffer, not the prefix-pruned one (which must leak to the GC).
	// Under the race detector sync.Pool drops puts at random, so the
	// positive identity check only holds in normal builds.
	if !raceEnabled && !samePool(exact) {
		t.Fatal("exact-tag pooled entry was not retired to the pool")
	}
	// The prefix-pruned entry's forward may still be in flight, so its
	// buffer must never come back out of the pool. Draws are kept out of
	// the pool so each one is a distinct buffer.
	for i := 0; i < 8; i++ {
		if v := newPooled('x'); sameSlice(v, low) {
			t.Fatal("prefix-pruned pooled entry was retired to the pool")
		}
	}

	// An entry whose slice was installed as the stored value must NOT
	// be retired, even at its exact tag.
	o2 := newObjectState()
	installed := newPooled('c')
	o2.addPending(tag.Tag{TS: 1, ID: 3}, installed, true)
	o2.apply(tag.Tag{TS: 1, ID: 3}, installed)
	o2.prune(tag.Tag{TS: 1, ID: 3})
	if samePool(installed) {
		t.Fatal("installed value's buffer was retired while still stored")
	}

	// A duplicate add must not replace the first copy: the duplicate's
	// pooled mark is discarded with it.
	o3 := newObjectState()
	first := newPooled('d')
	o3.addPending(tag.Tag{TS: 1, ID: 2}, first, false)
	o3.addPending(tag.Tag{TS: 1, ID: 2}, newPooled('e'), true)
	if o3.pendingPooled(tag.Tag{TS: 1, ID: 2}) {
		t.Fatal("duplicate add replaced the first entry's pooled mark")
	}
	if v, _ := o3.pending.get(tag.Tag{TS: 1, ID: 2}); !sameSlice(v, first) {
		t.Fatal("duplicate add replaced the first entry's value")
	}
}

// TestObjectStateAddPendingSkipsStaleTags pins the stale-duplicate
// guard: entries at or below the stored tag never enter the pending set
// (they could resurrect a pruned entry whose buffer is in flight).
func TestObjectStateAddPendingSkipsStaleTags(t *testing.T) {
	o := newObjectState()
	o.apply(tag.Tag{TS: 5, ID: 1}, []byte("v"))
	o.addPending(tag.Tag{TS: 5, ID: 1}, []byte("dup"), false)
	o.addPending(tag.Tag{TS: 4, ID: 9}, []byte("old"), false)
	if o.pending.size() != 0 {
		t.Fatalf("stale tags entered the pending set: size=%d", o.pending.size())
	}
	o.addPending(tag.Tag{TS: 5, ID: 2}, []byte("new"), false)
	if o.pending.size() != 1 {
		t.Fatal("newer tag refused")
	}
}
