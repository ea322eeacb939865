package wire

import (
	"bytes"
	"testing"

	"repro/internal/tag"
)

// pooledDecode encodes a one-envelope pre-write carrying value and
// decodes it back through the pooled path.
func pooledDecode(t testing.TB, value []byte) Envelope {
	t.Helper()
	f := NewFrame(Envelope{Kind: KindPreWrite, Origin: 1, Tag: tag.Tag{TS: 1, ID: 1}, Value: value})
	buf, err := AppendFrame(nil, &f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrameBodyPooled(buf[4:])
	if err != nil {
		t.Fatal(err)
	}
	return got.Env
}

// aliases reports whether a and b share a backing array. Both must have
// non-zero capacity.
func aliases(a, b []byte) bool {
	return &a[:1][0] == &b[:1][0]
}

// assertNeverHandedOut draws several buffers for each length, keeping
// them all out of the pool so every draw is a distinct buffer, and
// fails if any of them is v's backing array.
func assertNeverHandedOut(t *testing.T, v []byte, lengths ...int) {
	t.Helper()
	var drawn [][]byte
	for _, n := range lengths {
		for i := 0; i < 4; i++ {
			got := getValue(n)
			if aliases(got, v) {
				t.Fatalf("buffer of cap %d handed out again for length %d", cap(v), n)
			}
			drawn = append(drawn, got)
		}
	}
}

// TestValueClassCapacity pins the size classes: a pooled decode's value
// has the capacity of the smallest power-of-two class from 64 B that
// holds it, so a stored value costs its class, not a scratch buffer.
func TestValueClassCapacity(t *testing.T) {
	for _, tc := range []struct{ n, class int }{
		{1, 64}, {64, 64}, {65, 128}, {128, 128},
		{1024, 1024}, {1025, 2048}, {4096, 4096}, {1 << 20, 1 << 20},
	} {
		value := bytes.Repeat([]byte{byte(tc.n)}, tc.n)
		env := pooledDecode(t, value)
		if !env.ValuePooled() {
			t.Fatalf("len %d: value not marked pooled", tc.n)
		}
		if !bytes.Equal(env.Value, value) {
			t.Fatalf("len %d: value corrupted by the pooled decode", tc.n)
		}
		if cap(env.Value) != tc.class {
			t.Fatalf("len %d: cap = %d, want class %d", tc.n, cap(env.Value), tc.class)
		}
		env.RetireValue()
	}
}

// TestValueAboveLargestClassUnpooled: a value above maxPooledBuffer is
// allocated at its exact size, and PutValue drops it.
func TestValueAboveLargestClassUnpooled(t *testing.T) {
	n := maxPooledBuffer + 1
	env := pooledDecode(t, make([]byte, n))
	if cap(env.Value) != n {
		t.Fatalf("cap = %d, want exact size %d", cap(env.Value), n)
	}
	v := env.Value
	PutValue(v)
	assertNeverHandedOut(t, v, maxPooledBuffer, 1)
}

// TestPutValueDropsNonClassCapacity: a slice whose capacity is not a
// class size was never handed out by the pool, so PutValue must not let
// it in — the class invariant (every pooled buffer has exactly its
// class's capacity) is what keeps stored values right-sized.
func TestPutValueDropsNonClassCapacity(t *testing.T) {
	v := make([]byte, 100)
	PutValue(v)
	PutValue(v[:0:0])
	assertNeverHandedOut(t, v, 1, 64, 65, 100, 128)
}

// TestValueClassesDoNotMix: a buffer returned to one class is only ever
// handed out again for lengths of that class.
func TestValueClassesDoNotMix(t *testing.T) {
	v := getValue(128)
	PutValue(v)
	assertNeverHandedOut(t, v, 1, 64, 129, 256, 1024)
	// Positive control: the probe above can see reuse. sync.Pool drops
	// puts at random under the race detector, so only normal builds
	// check it.
	if !raceEnabled && !aliases(getValue(65), v) {
		t.Fatal("a retired 128 B buffer was not reused for a 65 B value")
	}
}

// TestPooledValueCycleAllocFree: a pooled decode followed by
// RetireValue allocates nothing in steady state — neither the value buffer nor the *[]byte box the class pool
// stores (valueHeaders recycles those).
func TestPooledValueCycleAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	for _, n := range []int{128, 1024} {
		f := NewFrame(Envelope{Kind: KindPreWrite, Origin: 1, Tag: tag.Tag{TS: 1, ID: 1}, Value: make([]byte, n)})
		buf, err := AppendFrame(nil, &f)
		if err != nil {
			t.Fatal(err)
		}
		body := buf[4:]
		allocs := testing.AllocsPerRun(100, func() {
			got, err := DecodeFrameBodyPooled(body)
			if err != nil {
				t.Fatal(err)
			}
			got.Env.RetireValue()
		})
		if allocs != 0 {
			t.Fatalf("%d B pooled decode → RetireValue allocates %.1f/op, want 0", n, allocs)
		}
	}
}
