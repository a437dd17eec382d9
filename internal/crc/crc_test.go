package crc

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestCRC16KnownVector(t *testing.T) {
	// CRC16/XMODEM ("123456789" → 0x31C3) uses the same polynomial, zero
	// init and no reflection — exactly the TS 38.212 gCRC16 construction.
	got := Compute(CRC16, []byte("123456789"))
	if got != 0x31C3 {
		t.Fatalf("CRC16(123456789) = %04x, want 31c3", got)
	}
}

func TestCRC24LengthsAndDistinctness(t *testing.T) {
	data := []byte("the journey of a ping request")
	a := Compute(CRC24A, data)
	b := Compute(CRC24B, data)
	c := Compute(CRC24C, data)
	if a == b || b == c || a == c {
		t.Fatalf("CRC24 variants collided: %x %x %x", a, b, c)
	}
	for _, k := range []Kind{CRC24A, CRC24B, CRC24C} {
		if v := Compute(k, data); v >= 1<<24 {
			t.Fatalf("%v exceeded 24 bits: %x", k, v)
		}
		if k.Len() != 24 {
			t.Fatalf("%v length = %d", k, k.Len())
		}
	}
	if CRC11.Len() != 11 || CRC6.Len() != 6 || CRC16.Len() != 16 {
		t.Fatal("short CRC lengths wrong")
	}
}

func TestCRCZeroMessage(t *testing.T) {
	// Zero-initialised LFSR over an all-zero message stays zero.
	for _, k := range []Kind{CRC24A, CRC24B, CRC24C, CRC16, CRC11, CRC6} {
		if v := Compute(k, make([]byte, 16)); v != 0 {
			t.Fatalf("%v of zeros = %x, want 0", k, v)
		}
	}
}

func TestAttachCheckRoundTrip(t *testing.T) {
	data := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x42}
	for _, k := range []Kind{CRC24A, CRC24B, CRC24C, CRC16} {
		block := Attach(k, data)
		if len(block) != len(data)+k.Len()/8 {
			t.Fatalf("%v Attach length %d", k, len(block))
		}
		payload, ok := Check(k, block)
		if !ok || !bytes.Equal(payload, data) {
			t.Fatalf("%v round trip failed", k)
		}
	}
}

func TestCheckDetectsCorruption(t *testing.T) {
	data := []byte("URLLC requires 99.999 percent reliability")
	block := Attach(CRC24A, data)
	for i := 0; i < len(block)*8; i++ {
		corrupt := bytes.Clone(block)
		corrupt[i/8] ^= 1 << uint(i%8)
		if _, ok := Check(CRC24A, corrupt); ok {
			t.Fatalf("single bit flip at %d undetected", i)
		}
	}
}

func TestCheckShortBlock(t *testing.T) {
	if _, ok := Check(CRC24A, []byte{1, 2}); ok {
		t.Fatal("short block accepted")
	}
	if _, ok := Check(CRC11, make([]byte, 8)); ok {
		t.Fatal("non-byte-aligned kind must not Check")
	}
}

func TestAttachUnalignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Attach(CRC11) did not panic")
		}
	}()
	Attach(CRC11, []byte{1})
}

// Property: Attach/Check round-trips for arbitrary payloads, and any single
// random corruption of the payload is detected.
func TestPropertyAttachCheck(t *testing.T) {
	f := func(data []byte, flipBit uint16) bool {
		block := Attach(CRC24B, data)
		payload, ok := Check(CRC24B, block)
		if !ok || !bytes.Equal(payload, data) {
			return false
		}
		if len(block) == 0 {
			return true
		}
		i := int(flipBit) % (len(block) * 8)
		corrupt := bytes.Clone(block)
		corrupt[i/8] ^= 1 << uint(i%8)
		_, ok = Check(CRC24B, corrupt)
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the CRC is linear — crc(a^b) == crc(a)^crc(b) for equal-length
// messages (zero-init, no final XOR).
func TestPropertyLinearity(t *testing.T) {
	f := func(a, b [24]byte) bool {
		x := make([]byte, 24)
		for i := range x {
			x[i] = a[i] ^ b[i]
		}
		return Compute(CRC24A, x) == Compute(CRC24A, a[:])^Compute(CRC24A, b[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCRC24A(b *testing.B) {
	data := make([]byte, 1500)
	for i := range data {
		data[i] = byte(i)
	}
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		Compute(CRC24A, data)
	}
}
