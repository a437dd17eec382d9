// Package bits provides MSB-first bit-level readers and writers used by the
// protocol codecs in internal/pdu and the channel coding in internal/fec.
// 3GPP wire formats pack fields MSB-first within octets, so both types work
// in that order.
package bits

import (
	"errors"
	"fmt"
	"slices"
)

// ErrShortBuffer is returned when a read runs past the end of the input.
var ErrShortBuffer = errors.New("bits: read past end of buffer")

// Writer accumulates bits MSB-first into a byte slice.
type Writer struct {
	buf  []byte
	nbit int // bits written so far
}

// NewWriter returns an empty writer.
func NewWriter() *Writer { return &Writer{} }

// Reset makes the writer append to dst: the bytes already in dst stay as a
// byte-aligned prefix of Bytes, and the writes that follow land after them,
// in dst's spare capacity while it lasts. A codec encoding into a buffer it
// keeps across calls passes that buffer here, so a steady-state encode
// allocates nothing.
func (w *Writer) Reset(dst []byte) {
	w.buf = dst
	w.nbit = 8 * len(dst)
}

// Bytes returns the accumulated bytes. The final byte is zero-padded on the
// right if the bit count is not a multiple of 8.
func (w *Writer) Bytes() []byte { return w.buf }

// WriteBit appends a single bit.
func (w *Writer) WriteBit(b int) {
	if w.nbit%8 == 0 {
		w.buf = append(w.buf, 0)
	}
	if b != 0 {
		w.buf[w.nbit/8] |= 0x80 >> uint(w.nbit%8)
	}
	w.nbit++
}

// WriteBits appends the low n bits of v, MSB first. n must be in [0,64].
// It fills the current partial byte, then appends whole bytes, then the
// remainder as a new left-justified partial byte.
func (w *Writer) WriteBits(v uint64, n int) {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("bits: WriteBits with n=%d", n))
	}
	v &= 1<<uint(n) - 1 // a shift by 64 gives 0, so n = 64 keeps every bit
	if used := w.nbit % 8; used != 0 && n > 0 {
		free := 8 - used
		take := min(free, n)
		n -= take
		w.buf[len(w.buf)-1] |= byte(v>>uint(n)) << uint(free-take)
		w.nbit += take
	}
	for ; n >= 8; n -= 8 {
		w.buf = append(w.buf, byte(v>>uint(n-8)))
		w.nbit += 8
	}
	if n > 0 {
		w.buf = append(w.buf, byte(v<<uint(8-n)))
		w.nbit += n
	}
}

// WriteBool appends one bit: 1 for true.
func (w *Writer) WriteBool(b bool) {
	if b {
		w.WriteBit(1)
	} else {
		w.WriteBit(0)
	}
}

// WriteBytes appends p. It requires the writer to be byte-aligned, matching
// how every 3GPP header places payloads on octet boundaries.
func (w *Writer) WriteBytes(p []byte) {
	if w.nbit%8 != 0 {
		panic("bits: WriteBytes on unaligned writer")
	}
	w.buf = append(w.buf, p...)
	w.nbit += 8 * len(p)
}

// WriteZeroBytes appends n zero octets. Like WriteBytes it requires the
// writer to be byte-aligned.
func (w *Writer) WriteZeroBytes(n int) {
	if w.nbit%8 != 0 {
		panic("bits: WriteZeroBytes on unaligned writer")
	}
	start := len(w.buf)
	w.buf = slices.Grow(w.buf, n)[:start+n]
	clear(w.buf[start:])
	w.nbit += 8 * n
}

// Align pads with zero bits to the next octet boundary. The partial byte's
// unwritten low bits are already zero, so padding only advances the count.
func (w *Writer) Align() {
	w.nbit = (w.nbit + 7) &^ 7
}

// Reader consumes bits MSB-first from a byte slice.
type Reader struct {
	buf  []byte
	nbit int // bits consumed so far
}

// NewReader returns a reader over p.
func NewReader(p []byte) *Reader { return &Reader{buf: p} }

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return 8*len(r.buf) - r.nbit }

// Offset returns the number of bits consumed.
func (r *Reader) Offset() int { return r.nbit }

// ReadBit consumes one bit.
func (r *Reader) ReadBit() (int, error) {
	if r.nbit >= 8*len(r.buf) {
		return 0, ErrShortBuffer
	}
	b := int(r.buf[r.nbit/8]>>(7-uint(r.nbit%8))) & 1
	r.nbit++
	return b, nil
}

// ReadBits consumes n bits MSB-first. n must be in [0,64].
func (r *Reader) ReadBits(n int) (uint64, error) {
	if n < 0 || n > 64 {
		return 0, fmt.Errorf("bits: ReadBits with n=%d", n)
	}
	if r.Remaining() < n {
		return 0, ErrShortBuffer
	}
	// Each step takes what is left of the current byte, up to n bits.
	var v uint64
	for n > 0 {
		used := r.nbit % 8
		take := min(8-used, n)
		b := r.buf[r.nbit/8] << uint(used) >> uint(8-take)
		v = v<<uint(take) | uint64(b)
		n -= take
		r.nbit += take
	}
	return v, nil
}

// ReadBool consumes one bit as a boolean.
func (r *Reader) ReadBool() (bool, error) {
	b, err := r.ReadBit()
	return b != 0, err
}

// ReadBytes consumes n bytes. The reader must be byte-aligned.
func (r *Reader) ReadBytes(n int) ([]byte, error) {
	if r.nbit%8 != 0 {
		return nil, errors.New("bits: ReadBytes on unaligned reader")
	}
	if r.Remaining() < 8*n {
		return nil, ErrShortBuffer
	}
	off := r.nbit / 8
	r.nbit += 8 * n
	return r.buf[off : off+n : off+n], nil
}

// Rest consumes and returns all remaining bytes. The reader must be aligned.
func (r *Reader) Rest() ([]byte, error) {
	return r.ReadBytes(r.Remaining() / 8)
}

// Aligned reports whether the reader sits on an octet boundary.
func (r *Reader) Aligned() bool { return r.nbit%8 == 0 }
