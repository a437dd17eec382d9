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

// NewWriterSize returns an empty writer whose buffer holds n bytes before it
// grows. A codec that knows its encoded size passes it here, so the encode
// allocates its output once.
func NewWriterSize(n int) *Writer { return &Writer{buf: make([]byte, 0, n)} }

// Len returns the number of bits written.
func (w *Writer) Len() int { return w.nbit }

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
func (w *Writer) WriteBits(v uint64, n int) {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("bits: WriteBits with n=%d", n))
	}
	for i := n - 1; i >= 0; i-- {
		w.WriteBit(int(v>>uint(i)) & 1)
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

// Align pads with zero bits to the next octet boundary.
func (w *Writer) Align() {
	for w.nbit%8 != 0 {
		w.WriteBit(0)
	}
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
	var v uint64
	for i := 0; i < n; i++ {
		b, _ := r.ReadBit()
		v = v<<1 | uint64(b)
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
