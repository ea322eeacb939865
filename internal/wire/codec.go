package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/tag"
)

// Binary layout (big endian):
//
//	frame header:
//	  uint32  total length of the rest of the frame
//	  uint8   envelope count; frameV2Bit marks the v2+ header
//	  uint8   lane (v2+ only)
//	per envelope:
//	  uint8   kind
//	  uint8   flags (FlagPooledValue is local-only: masked on encode,
//	          cleared on decode)
//	  uint32  object
//	  uint64  tag.ts
//	  uint32  tag.id
//	  uint32  origin
//	  uint32  epoch
//	  uint64  reqID
//	  uint32  value length, followed by the value bytes
//
// The v2 header (lane-sharded ring pipeline) sets frameV2Bit in the
// count byte and follows it with the frame's lane; v2/v3 counts are 1
// or 2. The v4 extension ("frame trains") keeps the exact same layout
// and widens the count to 1..MaxFrameEnvelopes — a count of 3+ IS the
// v4 frame, and is only ever emitted on links whose session negotiated
// CapFrameTrains (a v3 decoder rejects it as corrupt). The encoder
// always emits the v2+ header; the decoder accepts v1 (plain count 1
// or 2, no lane byte, mapped to lane 0), v2/v3, and v4, so pre-lane
// and pre-train peers' frames (and the fuzz corpus) still decode.
const (
	frameHeaderSize    = 4 + 1 + 1
	envelopeHeaderSize = 1 + 1 + 4 + 8 + 4 + 4 + 4 + 8 + 4
)

// frameV2Bit marks a count byte as the v2+ header (count | frameV2Bit,
// followed by the lane byte). v1 count bytes are plain 1 or 2, so the
// bit is unambiguous.
const frameV2Bit = 0x80

// MaxValueSize bounds a single register value; larger values must be
// chunked by the application. It also bounds decoder allocations so a
// corrupt length prefix cannot trigger a huge allocation.
const MaxValueSize = 16 << 20

// MaxTrainValueBytes bounds the total value bytes of a train's tail
// (every envelope beyond the classic primary+piggyback pair). The
// first two envelopes keep the v3 contract of MaxValueSize each, so a
// legal frame never exceeds MaxFrameSize — which is what keeps the
// reader's pre-allocation guard near the v3 bound instead of growing
// MaxFrameEnvelopes-fold. Train planners must respect it; in practice
// train tails are small (elided writes and typical values), and a
// planner that hits the cap just closes the train early.
const MaxTrainValueBytes = 4 << 20

// MaxFrameSize is the largest frame the codec will encode or decode.
const MaxFrameSize = frameHeaderSize + MaxFrameEnvelopes*envelopeHeaderSize +
	2*MaxValueSize + MaxTrainValueBytes

// Codec errors.
var (
	// ErrFrameTooLarge is returned when a frame exceeds MaxFrameSize.
	ErrFrameTooLarge = errors.New("wire: frame too large")
	// ErrCorruptFrame is returned when a frame fails structural checks.
	ErrCorruptFrame = errors.New("wire: corrupt frame")
)

// AppendEnvelope encodes env onto buf and returns the extended slice.
// FlagPooledValue is a process-local ownership mark and never reaches
// the wire.
func AppendEnvelope(buf []byte, env *Envelope) []byte {
	buf = append(buf, byte(env.Kind), env.Flags&^FlagPooledValue)
	buf = binary.BigEndian.AppendUint32(buf, uint32(env.Object))
	buf = binary.BigEndian.AppendUint64(buf, env.Tag.TS)
	buf = binary.BigEndian.AppendUint32(buf, env.Tag.ID)
	buf = binary.BigEndian.AppendUint32(buf, uint32(env.Origin))
	buf = binary.BigEndian.AppendUint32(buf, env.Epoch)
	buf = binary.BigEndian.AppendUint64(buf, env.ReqID)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(env.Value)))
	buf = append(buf, env.Value...)
	return buf
}

// AppendFrame encodes f onto buf and returns the extended slice. The
// length prefix is backfilled in place, so the encoder performs no
// intermediate allocation: with a reused buf the call is allocation-free.
func AppendFrame(buf []byte, f *Frame) ([]byte, error) {
	count := f.EnvelopeCount()
	if count > MaxFrameEnvelopes {
		return nil, fmt.Errorf("%w: %d envelopes", ErrFrameTooLarge, count)
	}
	if len(f.Env.Value) > MaxValueSize ||
		(f.Piggyback != nil && len(f.Piggyback.Value) > MaxValueSize) {
		return nil, ErrFrameTooLarge
	}
	tail := 0
	for i := range f.Extra {
		tail += len(f.Extra[i].Value)
	}
	if tail > MaxTrainValueBytes {
		return nil, fmt.Errorf("%w: train tail carries %d value bytes", ErrFrameTooLarge, tail)
	}
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, byte(count)|frameV2Bit, f.Lane)
	buf = AppendEnvelope(buf, &f.Env)
	if f.Piggyback != nil {
		buf = AppendEnvelope(buf, f.Piggyback)
	}
	for i := range f.Extra {
		buf = AppendEnvelope(buf, &f.Extra[i])
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf, nil
}

// AppendTo encodes the frame (length prefix included) onto buf and
// returns the extended slice. It is the allocation-free encoder of the
// hot path: callers keep one scratch buffer (their own, or one from
// GetBuffer) and re-encode into it.
func (f *Frame) AppendTo(buf []byte) ([]byte, error) {
	return AppendFrame(buf, f)
}

// valueMode selects how a decoded envelope's Value relates to the input
// buffer.
type valueMode uint8

const (
	// valueCopy allocates a fresh slice per value: the frame owns its
	// memory with no strings attached (the seed's behavior).
	valueCopy valueMode = iota
	// valueAlias keeps the Value aliasing the input buffer; the caller
	// owns the lifetime contract.
	valueAlias
	// valuePooled copies the value into a buffer of its size class from
	// the value pool and marks the envelope FlagPooledValue: the receiver
	// returns the buffer with PutValue (or Envelope.RetireValue) once the
	// value is retired, making the steady-state inbound path
	// allocation-free.
	valuePooled
)

// decodeEnvelopeInto consumes one envelope from data into env according
// to the value mode, returning the remainder.
func decodeEnvelopeInto(env *Envelope, data []byte, mode valueMode) ([]byte, error) {
	if len(data) < envelopeHeaderSize {
		return nil, fmt.Errorf("%w: truncated envelope header", ErrCorruptFrame)
	}
	env.Kind = Kind(data[0])
	// FlagPooledValue is local-only: a frame carrying it on the wire is
	// either corrupt or malicious, and honoring it would let a peer
	// trick this process into recycling a buffer it never pooled.
	env.Flags = data[1] &^ FlagPooledValue
	env.Object = ObjectID(binary.BigEndian.Uint32(data[2:6]))
	env.Tag = tag.Tag{
		TS: binary.BigEndian.Uint64(data[6:14]),
		ID: binary.BigEndian.Uint32(data[14:18]),
	}
	env.Origin = ProcessID(binary.BigEndian.Uint32(data[18:22]))
	env.Epoch = binary.BigEndian.Uint32(data[22:26])
	env.ReqID = binary.BigEndian.Uint64(data[26:34])
	vlen := binary.BigEndian.Uint32(data[34:38])
	if vlen > MaxValueSize {
		return nil, fmt.Errorf("%w: value length %d", ErrFrameTooLarge, vlen)
	}
	if !env.Kind.isValid() {
		return nil, fmt.Errorf("%w: unknown kind %d", ErrCorruptFrame, uint8(env.Kind))
	}
	data = data[envelopeHeaderSize:]
	if uint32(len(data)) < vlen {
		return nil, fmt.Errorf("%w: truncated value", ErrCorruptFrame)
	}
	env.Value = nil
	if vlen > 0 {
		switch mode {
		case valueAlias:
			env.Value = data[:vlen:vlen]
		case valuePooled:
			env.Value = getValue(int(vlen))
			copy(env.Value, data[:vlen])
			env.Flags |= FlagPooledValue
		default:
			env.Value = append([]byte(nil), data[:vlen]...)
		}
	}
	return data[vlen:], nil
}

// decodeEnvelope consumes one envelope from data, returning the remainder.
func decodeEnvelope(data []byte) (Envelope, []byte, error) {
	var env Envelope
	rest, err := decodeEnvelopeInto(&env, data, valueCopy)
	if err != nil {
		return Envelope{}, nil, err
	}
	return env, rest, nil
}

// DecodeFrameBody decodes the body of a frame (everything after the
// uint32 length prefix). Value slices are copied out of body, so the
// returned frame owns its memory.
func DecodeFrameBody(body []byte) (Frame, error) {
	var f Frame
	if err := f.decodeFrom(body, valueCopy); err != nil {
		return Frame{}, err
	}
	return f, nil
}

// DecodeFrameBodyPooled is DecodeFrameBody with the values copied into
// size-classed buffers from the value pool instead of fresh
// allocations; the decoded envelopes carry FlagPooledValue and the
// receiver returns each buffer with PutValue (or lets it fall to the
// GC) when the value is retired.
func DecodeFrameBodyPooled(body []byte) (Frame, error) {
	var f Frame
	if err := f.decodeFrom(body, valuePooled); err != nil {
		return Frame{}, err
	}
	return f, nil
}

// DecodeFrom decodes a frame body into f without copying: Value slices
// alias body, so the frame is only valid while body is not reused. A
// previously decoded-into frame's Piggyback allocation is reused, making
// steady-state decoding allocation-free for a reused *Frame. Callers that
// retain values past the buffer's lifetime must copy them (Clone).
func (f *Frame) DecodeFrom(body []byte) error {
	return f.decodeFrom(body, valueAlias)
}

func (f *Frame) decodeFrom(body []byte, mode valueMode) error {
	if len(body) < 1 {
		f.resetDecode()
		return fmt.Errorf("%w: empty body", ErrCorruptFrame)
	}
	count := int(body[0])
	f.Lane = 0
	rest := body[1:]
	v2 := false
	if count&frameV2Bit != 0 {
		v2 = true
		if len(rest) < 1 {
			f.resetDecode()
			return fmt.Errorf("%w: v2 header without lane byte", ErrCorruptFrame)
		}
		count &^= frameV2Bit
		f.Lane = rest[0]
		rest = rest[1:]
	}
	// v1 headers carry at most the classic piggyback pair; train counts
	// (3+) require the v2+ header, as only train-capable builds emit it.
	if count < 1 || count > MaxFrameEnvelopes || (count > 2 && !v2) {
		f.resetDecode()
		return fmt.Errorf("%w: envelope count %d", ErrCorruptFrame, count)
	}
	rest, err := decodeEnvelopeInto(&f.Env, rest, mode)
	if err != nil {
		f.resetDecode()
		return err
	}
	if count >= 2 {
		pb := f.Piggyback
		if pb == nil {
			pb = new(Envelope)
		}
		rest, err = decodeEnvelopeInto(pb, rest, mode)
		if err != nil {
			f.resetDecode()
			return err
		}
		f.Piggyback = pb
	} else {
		f.Piggyback = nil
	}
	f.clearExtra()
	if n := count - 2; n > 0 {
		// Reuse the previous decode's Extra backing array so steady-state
		// train decoding stays allocation-free for a reused *Frame.
		if cap(f.Extra) >= n {
			f.Extra = f.Extra[:n]
		} else {
			f.Extra = make([]Envelope, n)
		}
		tail := 0
		for i := range f.Extra {
			rest, err = decodeEnvelopeInto(&f.Extra[i], rest, mode)
			if err != nil {
				f.resetDecode()
				return err
			}
			tail += len(f.Extra[i].Value)
		}
		// Mirror the encoder's train-tail byte bound, so anything the
		// decoder accepts re-encodes.
		if tail > MaxTrainValueBytes {
			f.resetDecode()
			return fmt.Errorf("%w: train tail carries %d value bytes", ErrFrameTooLarge, tail)
		}
	}
	if len(rest) != 0 {
		f.resetDecode()
		return fmt.Errorf("%w: %d trailing bytes", ErrCorruptFrame, len(rest))
	}
	return nil
}

// clearExtra zeroes and truncates the Extra slice, dropping any value
// references from a previous decode while keeping the backing array for
// reuse.
func (f *Frame) clearExtra() {
	for i := range f.Extra {
		f.Extra[i] = Envelope{}
	}
	f.Extra = f.Extra[:0]
}

// resetDecode zeroes the frame after a failed decode so no field — a
// partially overwritten header, a Value still aliasing a possibly
// recycled pooled buffer, or a previous decode's piggyback or train
// tail — survives into error handling.
func (f *Frame) resetDecode() {
	f.Env = Envelope{}
	f.Piggyback = nil
	f.clearExtra()
	f.Lane = 0
}

// bufPool holds the scratch buffers shared by the transports: reader
// bodies, egress slabs, handshakes and encoded frames. Decoded values
// never live here (they have their own size-classed pool, PutValue).
// Buffers start at 4 KiB — enough for a coalesced batch of typical
// frames — and grow in place; oversized buffers (beyond 1 MiB) are not
// returned to the pool so one huge frame does not pin memory forever.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// maxPooledBuffer bounds the capacity of buffers kept by the scratch
// pool, and is the largest value size class.
const maxPooledBuffer = 1 << 20

// GetBuffer returns a zero-length scratch buffer from the shared pool.
// Release it with PutBuffer when the encoded or decoded bytes are no
// longer referenced.
func GetBuffer() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// PutBuffer returns a buffer obtained from GetBuffer to the pool.
func PutBuffer(b *[]byte) {
	if b == nil || cap(*b) > maxPooledBuffer {
		return
	}
	bufPool.Put(b)
}

// Writer serializes frames onto an io.Writer with length-prefixed framing.
// It is not safe for concurrent use; callers serialize through a single
// sender goroutine (which the transports do).
type Writer struct {
	w   *bufio.Writer
	buf []byte
}

// NewWriter returns a Writer emitting frames to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// WriteFrame encodes f and flushes it to the underlying writer.
func (fw *Writer) WriteFrame(f *Frame) error {
	var err error
	fw.buf, err = AppendFrame(fw.buf[:0], f)
	if err != nil {
		return err
	}
	if _, err := fw.w.Write(fw.buf); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	if err := fw.w.Flush(); err != nil {
		return fmt.Errorf("wire: flush frame: %w", err)
	}
	return nil
}

// Reader decodes length-prefixed frames from an io.Reader. It is not safe
// for concurrent use. The frame body is read into a buffer taken lazily
// from the shared pool; call Close when done with the Reader to return
// it (decoded frames own their memory, so they outlive the Reader).
type Reader struct {
	r      *bufio.Reader
	buf    *[]byte
	pooled bool
}

// PoolValues switches the Reader to hand decoded values out in pooled
// owned buffers (DecodeFrameBodyPooled) instead of fresh allocations.
// The frames' envelopes then carry FlagPooledValue; see PutValue for the
// ownership contract.
func (fr *Reader) PoolValues() { fr.pooled = true }

// NewReader returns a Reader consuming frames from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// NewReaderSize is NewReader with an explicit bufio buffer size.
func NewReaderSize(r io.Reader, size int) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, size)}
}

// Close returns the Reader's pooled body buffer. The Reader must not be
// used afterwards.
func (fr *Reader) Close() {
	if fr.buf != nil {
		PutBuffer(fr.buf)
		fr.buf = nil
	}
}

// ReadFrame reads and decodes the next frame. It returns io.EOF when the
// stream ends cleanly on a frame boundary and io.ErrUnexpectedEOF when it
// ends mid-frame.
func (fr *Reader) ReadFrame() (Frame, error) {
	var lenbuf [4]byte
	if _, err := io.ReadFull(fr.r, lenbuf[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("wire: read frame length: %w", err)
	}
	n := binary.BigEndian.Uint32(lenbuf[:])
	if n > MaxFrameSize {
		return Frame{}, fmt.Errorf("%w: body length %d", ErrFrameTooLarge, n)
	}
	if fr.buf == nil {
		fr.buf = GetBuffer()
	}
	if cap(*fr.buf) < int(n) {
		*fr.buf = make([]byte, n)
	}
	body := (*fr.buf)[:n]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		return Frame{}, fmt.Errorf("wire: read frame body: %w", err)
	}
	if fr.pooled {
		return DecodeFrameBodyPooled(body)
	}
	return DecodeFrameBody(body)
}
