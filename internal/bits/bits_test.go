package bits

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestWriteReadBits(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0b101, 3)
	w.WriteBits(0xABCD, 16)
	w.WriteBool(true)
	w.WriteBits(0, 4) // pad to 24 bits
	if w.nbit != 24 {
		t.Fatalf("nbit = %d, want 24", w.nbit)
	}
	r := NewReader(w.Bytes())
	if v, _ := r.ReadBits(3); v != 0b101 {
		t.Fatalf("first field = %b", v)
	}
	if v, _ := r.ReadBits(16); v != 0xABCD {
		t.Fatalf("second field = %x", v)
	}
	if b, _ := r.ReadBool(); !b {
		t.Fatal("bool field lost")
	}
	if v, _ := r.ReadBits(4); v != 0 {
		t.Fatalf("padding = %b", v)
	}
	if r.Remaining() != 0 {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
}

func TestMSBFirstLayout(t *testing.T) {
	// A PDCP-style header: D/C bit (1) + reserved (3) + SN (12) must produce
	// the canonical byte layout.
	w := NewWriter()
	w.WriteBit(1)
	w.WriteBits(0, 3)
	w.WriteBits(0xF0F, 12)
	want := []byte{0x8F, 0x0F}
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("layout = %x, want %x", w.Bytes(), want)
	}
}

func TestWriteBytesAlignment(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0xAB, 8)
	w.WriteBytes([]byte{1, 2, 3})
	if len(w.Bytes()) != 4 {
		t.Fatalf("bytes = %x", w.Bytes())
	}
	w2 := NewWriter()
	w2.WriteBit(1)
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned WriteBytes did not panic")
		}
	}()
	w2.WriteBytes([]byte{1})
}

// A reset writer writes the same bits as a fresh one, after whatever dst
// already holds: the prefix is left as it was, and spare capacity (with any
// stale bytes in it) is overwritten, not read.
func TestResetMatchesNewWriter(t *testing.T) {
	write := func(w *Writer) []byte {
		w.WriteBit(1)
		w.WriteBits(0x2A, 7)
		w.WriteBytes([]byte{1, 2, 3})
		w.WriteZeroBytes(2)
		w.WriteBits(0x5, 3)
		w.Align()
		return w.Bytes()
	}
	want := write(NewWriter())
	if !bytes.Equal(want, []byte{0xAA, 1, 2, 3, 0, 0, 0xA0}) {
		t.Fatalf("fresh writer = %x", want)
	}
	stale := bytes.Repeat([]byte{0xFF}, 64)
	for _, dst := range [][]byte{nil, stale[:0], stale[:0:3], []byte{0x11, 0x22}, stale[:5]} {
		prefix := append([]byte(nil), dst...)
		var w Writer
		w.Reset(dst)
		got := write(&w)
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Errorf("Reset(%x): wrote %x, want %x then %x", prefix, got, prefix, want)
		}
		if w.nbit != 8*len(got) {
			t.Errorf("Reset(%x): nbit = %d bits for %d bytes", prefix, w.nbit, len(got))
		}
	}
	// Writing into a buffer with room allocates nothing.
	buf := make([]byte, 0, 16)
	var w Writer
	if n := testing.AllocsPerRun(50, func() { w.Reset(buf[:0]); write(&w) }); n != 0 {
		t.Errorf("encode into a reused buffer: %v allocs, want 0", n)
	}
}

func TestWriteZeroBytesAlignment(t *testing.T) {
	w := NewWriter()
	w.WriteBit(1)
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned WriteZeroBytes did not panic")
		}
	}()
	w.WriteZeroBytes(1)
}

func TestAlign(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0b11, 2)
	w.Align()
	if w.nbit != 8 {
		t.Fatalf("nbit after Align = %d", w.nbit)
	}
	if w.Bytes()[0] != 0xC0 {
		t.Fatalf("byte = %x, want c0", w.Bytes()[0])
	}
	w.Align() // idempotent on aligned writer
	if w.nbit != 8 {
		t.Fatal("Align not idempotent")
	}
}

func TestReaderErrors(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if _, err := r.ReadBits(9); err != ErrShortBuffer {
		t.Fatalf("over-read error = %v", err)
	}
	r2 := NewReader([]byte{0xFF, 0x00})
	r2.ReadBit()
	if _, err := r2.ReadBytes(1); err == nil {
		t.Fatal("unaligned ReadBytes must fail")
	}
	if _, err := r2.ReadBits(70); err == nil {
		t.Fatal("ReadBits(70) must fail")
	}
	r3 := NewReader(nil)
	if _, err := r3.ReadBit(); err != ErrShortBuffer {
		t.Fatalf("empty ReadBit error = %v", err)
	}
}

func TestRest(t *testing.T) {
	r := NewReader([]byte{0xAA, 0xBB, 0xCC})
	r.ReadBits(8)
	rest, err := r.Rest()
	if err != nil || !bytes.Equal(rest, []byte{0xBB, 0xCC}) {
		t.Fatalf("Rest = %x, %v", rest, err)
	}
	if r.Remaining() != 0 {
		t.Fatal("Rest did not consume")
	}
}

func TestOffsetAndAligned(t *testing.T) {
	r := NewReader([]byte{0xFF, 0xFF})
	r.ReadBits(3)
	if r.Offset() != 3 || r.Aligned() {
		t.Fatalf("Offset=%d Aligned=%v", r.Offset(), r.Aligned())
	}
	r.ReadBits(5)
	if !r.Aligned() {
		t.Fatal("should be aligned after 8 bits")
	}
}

// Property: any sequence of (value,width) fields round-trips.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(fields []uint16, widthsRaw []uint8) bool {
		n := len(fields)
		if len(widthsRaw) < n {
			n = len(widthsRaw)
		}
		w := NewWriter()
		widths := make([]int, n)
		want := make([]uint64, n)
		for i := 0; i < n; i++ {
			widths[i] = int(widthsRaw[i]%16) + 1 // 1..16 bits
			want[i] = uint64(fields[i]) & ((1 << uint(widths[i])) - 1)
			w.WriteBits(want[i], widths[i])
		}
		r := NewReader(w.Bytes())
		for i := 0; i < n; i++ {
			v, err := r.ReadBits(widths[i])
			if err != nil || v != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyWriteBitsMasksHighBits(t *testing.T) {
	f := func(v uint64, nRaw uint8) bool {
		n := int(nRaw % 65)
		w := NewWriter()
		w.WriteBits(v, n)
		r := NewReader(w.Bytes())
		got, err := r.ReadBits(n)
		if err != nil {
			return false
		}
		var mask uint64
		if n == 64 {
			mask = ^uint64(0)
		} else {
			mask = (1 << uint(n)) - 1
		}
		return got == v&mask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// bitwiseWriter is the bit-at-a-time writer that WriteBits and Align
// replaced, kept as their oracle: one bit per step, a fresh zero byte at
// every octet boundary.
type bitwiseWriter struct {
	buf  []byte
	nbit int
}

func (o *bitwiseWriter) writeBit(b int) {
	if o.nbit%8 == 0 {
		o.buf = append(o.buf, 0)
	}
	if b != 0 {
		o.buf[o.nbit/8] |= 0x80 >> uint(o.nbit%8)
	}
	o.nbit++
}

func (o *bitwiseWriter) writeBits(v uint64, n int) {
	for i := n - 1; i >= 0; i-- {
		o.writeBit(int(v>>uint(i)) & 1)
	}
}

func (o *bitwiseWriter) align() {
	for o.nbit%8 != 0 {
		o.writeBit(0)
	}
}

// bitwiseReadBits is the bit-at-a-time ReadBits, kept as its oracle.
func bitwiseReadBits(r *Reader, n int) (uint64, error) {
	if n < 0 || n > 64 {
		return 0, errors.New("bits: bad width")
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

// Fuzz op codes: each op is one byte, then its operands.
const (
	opWriteBits  = iota // width byte (mod 65), then 8 value bytes (high bits too)
	opWriteBit          // bit byte
	opWriteBytes        // length byte (mod 5); aligns first, as codecs do
	opAlign
	numOps
)

// bitsSeed encodes a script that writes align bits and then each width
// n = lo…hi in turn, re-aligning in between: those widths at that alignment.
func bitsSeed(reset byte, align, lo, hi int) []byte {
	s := []byte{reset}
	for n := lo; n <= hi; n++ {
		s = append(s, opAlign, opWriteBits, byte(align), 0xFF, 0, 0xFF, 0, 0xFF, 0, 0xFF, 0)
		s = append(s, opWriteBits, byte(n), 0xA5, 0x5A, 0xC3, 0x3C, 0x96, 0x69, 0xF0, 0x0F)
	}
	return append(s, opWriteBytes, 3, opWriteBit, 1, opWriteBit, 0)
}

// FuzzBitsMatchesBitwise runs a random script of WriteBits, WriteBit,
// WriteBytes and Align on a Writer, fresh or Reset onto a buffer with stale
// bytes in its spare capacity, and on the bit-at-a-time oracle, comparing
// the bytes and the bit count after every step; then reads the fields back
// with ReadBits and with the oracle reader, comparing every value, error and
// offset, and finally over-reads. The seeds cover every width 0…64 at every
// alignment from each start, so `go test` runs them all.
func FuzzBitsMatchesBitwise(f *testing.F) {
	// Small seeds, 13 widths each, keep the fuzzer's mutations cheap.
	for start := byte(0); start < 3; start++ {
		for align := 0; align < 8; align++ {
			for lo := 0; lo <= 64; lo += 13 {
				f.Add(bitsSeed(start, align, lo, min(lo+12, 64)))
			}
		}
	}
	f.Fuzz(checkBitsScript)
}

// checkBitsScript runs one FuzzBitsMatchesBitwise script; see there.
func checkBitsScript(t *testing.T, script []byte) {
	if len(script) == 0 {
		return
	}
	var w Writer
	var o bitwiseWriter
	stale := bytes.Repeat([]byte{0xFF}, 32)
	switch script[0] % 3 {
	case 0:
		w = *NewWriter()
	case 1: // a prefix, then stale spare capacity
		dst := append(stale[:0:32], 0x12, 0x34)
		w.Reset(dst)
		o.buf, o.nbit = []byte{0x12, 0x34}, 16
	case 2: // empty, stale capacity only
		w.Reset(stale[:0:8])
	}
	startBits := o.nbit
	var widths []int // the bits each write added, in order
	next := func(i *int) byte {
		if *i >= len(script) {
			return 0
		}
		b := script[*i]
		*i++
		return b
	}
	for i := 1; i < len(script); {
		op := int(next(&i)) % numOps
		before := o.nbit
		switch op {
		case opWriteBits:
			n := int(next(&i)) % 65
			var v uint64
			for k := 0; k < 8; k++ {
				v = v<<8 | uint64(next(&i))
			}
			w.WriteBits(v, n)
			o.writeBits(v, n)
		case opWriteBit:
			b := int(next(&i) & 1)
			w.WriteBit(b)
			o.writeBit(b)
		case opWriteBytes:
			p := make([]byte, int(next(&i))%5)
			for k := range p {
				p[k] = byte(0x81 + 17*k)
			}
			w.Align()
			o.align()
			widths = append(widths, o.nbit-before)
			before = o.nbit
			w.WriteBytes(p)
			for _, b := range p {
				o.writeBits(uint64(b), 8)
			}
		case opAlign:
			w.Align()
			o.align()
		}
		widths = append(widths, o.nbit-before)
		if w.nbit != o.nbit || !bytes.Equal(w.Bytes(), o.buf) {
			t.Fatalf("after op %d at byte %d: writer %x (%d bits), bitwise %x (%d bits)",
				op, i, w.Bytes(), w.nbit, o.buf, o.nbit)
		}
	}

	r, ro := NewReader(o.buf), NewReader(o.buf)
	if _, err := r.ReadBits(startBits); err != nil {
		t.Fatal(err)
	}
	bitwiseReadBits(ro, startBits)
	// The fields, the final byte's padding, then an over-read and two
	// illegal widths, which must fail alike and consume nothing.
	pad := 8*len(o.buf) - o.nbit
	for k, n := range append(widths, pad, 1, 65, -1) {
		got, err := r.ReadBits(n)
		want, werr := bitwiseReadBits(ro, n)
		if got != want || (err == nil) != (werr == nil) || (err == ErrShortBuffer) != (werr == ErrShortBuffer) ||
			r.Offset() != ro.Offset() {
			t.Fatalf("ReadBits(%d) = %x, %v at %d; bitwise %x, %v at %d",
				n, got, err, r.Offset(), want, werr, ro.Offset())
		}
		if k >= len(widths)+1 && err == nil {
			t.Fatalf("ReadBits(%d) past the end or out of range did not fail", n)
		}
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bits left after reading every field back", r.Remaining())
	}
}

// roundTripFields is one header stack's worth of fields (value, width), in
// the widths the SDAP, PDCP, RLC and MAC codecs write: the fixed script of
// BenchmarkBitsRoundTrip.
var roundTripFields = [][2]uint64{
	{1, 1}, {0, 1}, {9, 6}, // SDAP DL: RDI, RQI, QFI
	{1, 1}, {0, 3}, {0xA5C, 12}, // PDCP 12-bit SN
	{1, 1}, {0, 5}, {0x2A5C3, 18}, // PDCP 18-bit SN
	{2, 2}, {0x2B, 6}, {0xBEEF, 16}, // RLC UM: SI, SN, SO
	{0, 1}, {1, 1}, {4, 6}, {1234, 16}, // MAC subheader, 16-bit L
	{0, 1}, {0, 1}, {4, 6}, {77, 8}, // MAC subheader, 8-bit L
	{0, 2}, {63, 6}, // MAC padding
}

// bitsRoundTrip returns one BitsRoundTrip op: write every field of
// roundTripFields into a reused buffer, then read each back and check it.
func bitsRoundTrip(tb testing.TB) func() {
	buf := make([]byte, 0, 32)
	var w Writer
	var r Reader
	return func() {
		w.Reset(buf[:0])
		for _, f := range roundTripFields {
			w.WriteBits(f[0], int(f[1]))
		}
		r = Reader{buf: w.Bytes()}
		for _, f := range roundTripFields {
			if v, err := r.ReadBits(int(f[1])); v != f[0] || err != nil {
				tb.Fatalf("field %d/%d read back as %d, %v", f[0], f[1], v, err)
			}
		}
	}
}

func BenchmarkBitsRoundTrip(b *testing.B) {
	b.ReportAllocs()
	op := bitsRoundTrip(b)
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestBitsRoundTripAllocs pins the benchmark's op at exactly 0 allocations:
// writing into a buffer with room and reading it back allocate nothing.
func TestBitsRoundTripAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, bitsRoundTrip(t)); n != 0 {
		t.Errorf("BitsRoundTrip: %v allocs/op, want 0", n)
	}
}
