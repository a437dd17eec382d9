package bits

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestWriteReadBits(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0b101, 3)
	w.WriteBits(0xABCD, 16)
	w.WriteBool(true)
	w.WriteBits(0, 4) // pad to 24 bits
	if w.Len() != 24 {
		t.Fatalf("Len = %d, want 24", w.Len())
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

// A sized writer writes the same bits as an unsized one; the size only sets
// the starting capacity, and writing past it still grows.
func TestNewWriterSizeMatchesNewWriter(t *testing.T) {
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
		t.Fatalf("unsized writer = %x", want)
	}
	for _, n := range []int{0, 3, 7, 64} {
		if got := write(NewWriterSize(n)); !bytes.Equal(got, want) {
			t.Errorf("NewWriterSize(%d) = %x, want %x", n, got, want)
		}
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
	if w.Len() != 8 {
		t.Fatalf("Len after Align = %d", w.Len())
	}
	if w.Bytes()[0] != 0xC0 {
		t.Fatalf("byte = %x, want c0", w.Bytes()[0])
	}
	w.Align() // idempotent on aligned writer
	if w.Len() != 8 {
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
