package wire

import (
	"math/bits"
	"sync"
)

// The value pool holds the buffers that pooled decoding
// (DecodeFrameBodyPooled, Reader.PoolValues) copies register values
// into. It is separate from the scratch pool (GetBuffer) because a
// value's buffer is retained: a replica stores every object's value
// until the next write replaces it, so a 128 B value must cost a 128 B
// buffer, not a 4 KiB scratch one. Buffers come in power-of-two size
// classes from 64 B up to maxPooledBuffer; a value of n bytes gets the
// smallest class that holds it. Values above the largest class are
// allocated at their exact size and never pooled.
const (
	minValueClassShift = 6
	maxValueClassShift = 20 // log2(maxPooledBuffer)
	valueClassCount    = maxValueClassShift - minValueClassShift + 1
)

// valuePools holds one pool per size class; every buffer in
// valuePools[c] has capacity valueClassSize(c) exactly.
var valuePools [valueClassCount]sync.Pool

// valueHeaders recycles the *[]byte boxes the class pools store, the
// way encodedPool recycles EncodedFrame handles, so a decode → PutValue
// cycle allocates nothing in steady state.
var valueHeaders = sync.Pool{New: func() any { return new([]byte) }}

// valueClass returns the index of the smallest size class holding n
// bytes, or -1 when n exceeds the largest class.
func valueClass(n int) int {
	switch {
	case n > maxPooledBuffer:
		return -1
	case n <= 1<<minValueClassShift:
		return 0
	}
	return bits.Len(uint(n-1)) - minValueClassShift
}

// valueClassSize returns the buffer capacity of size class c.
func valueClassSize(c int) int { return 1 << (c + minValueClassShift) }

// getValue returns an n-byte slice backed by a buffer of n's size
// class, reusing a retired one when the class pool has it. Above the
// largest class it allocates exactly n bytes. The contents are
// unspecified: the caller overwrites all n bytes.
func getValue(n int) []byte {
	c := valueClass(n)
	if c < 0 {
		return make([]byte, n)
	}
	if h, ok := valuePools[c].Get().(*[]byte); ok {
		v := (*h)[:n]
		*h = nil
		valueHeaders.Put(h)
		return v
	}
	return make([]byte, n, valueClassSize(c))
}

// PutValue returns a pool-owned value slice (a decoded envelope value
// marked FlagPooledValue) to the pool of the size class its capacity
// names. A capacity that is not a class size — a value above the
// largest class, or a slice the pool never handed out — falls to the
// GC. The caller must hold the only remaining reference: a buffer
// recycled while aliased elsewhere corrupts whoever still reads it.
// Values that are never retired (installed register values, values
// handed to applications) simply fall to the GC, which is always safe.
func PutValue(v []byte) {
	c := valueClass(cap(v))
	if c < 0 || cap(v) != valueClassSize(c) {
		return
	}
	h := valueHeaders.Get().(*[]byte)
	*h = v[:0]
	valuePools[c].Put(h)
}
