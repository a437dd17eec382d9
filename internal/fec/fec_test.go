package fec

import (
	"bytes"
	"testing"
	"testing/quick"

	"urllcsim/internal/sim"
)

func TestBitsBytesRoundTrip(t *testing.T) {
	data := []byte{0x00, 0xFF, 0xA5, 0x3C}
	bs := BytesToBits(data)
	if len(bs) != 32 {
		t.Fatalf("bit count %d", len(bs))
	}
	back, err := BitsToBytes(bs)
	if err != nil || !bytes.Equal(back, data) {
		t.Fatalf("round trip failed: %x %v", back, err)
	}
	if _, err := BitsToBytes(make([]Bit, 7)); err == nil {
		t.Fatal("non-aligned bits accepted")
	}
	if _, err := BitsToBytes([]Bit{9, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("invalid bit value accepted")
	}
}

func TestConvEncodeLengthAndTail(t *testing.T) {
	info := BytesToBits([]byte{0xAB, 0xCD})
	coded := ConvEncode(info)
	if len(coded) != 2*(16+6) {
		t.Fatalf("coded length %d, want 44", len(coded))
	}
	// All-zero input keeps the encoder in state 0: all-zero output.
	zero := ConvEncode(make([]Bit, 24))
	for i, b := range zero {
		if b != 0 {
			t.Fatalf("zero input produced 1 at %d", i)
		}
	}
}

func TestViterbiNoErrors(t *testing.T) {
	msg := []byte("URLLC: 0.5ms one-way, five nines")
	info := BytesToBits(msg)
	coded := ConvEncode(info)
	dec, err := ViterbiDecode(coded, len(info))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := BitsToBytes(dec)
	if !bytes.Equal(got, msg) {
		t.Fatalf("clean decode failed: %q", got)
	}
}

func TestViterbiCorrectsScatteredErrors(t *testing.T) {
	msg := []byte{0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF0}
	info := BytesToBits(msg)
	coded := ConvEncode(info)
	// Flip well-separated bits — within the free distance (10) per window,
	// the (133,171) code corrects them.
	for _, pos := range []int{3, 40, 77, 110} {
		coded[pos] ^= 1
	}
	dec, err := ViterbiDecode(coded, len(info))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := BitsToBytes(dec)
	if !bytes.Equal(got, msg) {
		t.Fatalf("decode with scattered errors failed: %x", got)
	}
}

func TestViterbiLengthMismatch(t *testing.T) {
	if _, err := ViterbiDecode(make([]Bit, 10), 16); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestPropertyConvRoundTrip(t *testing.T) {
	f := func(msg []byte) bool {
		if len(msg) == 0 {
			return true
		}
		if len(msg) > 256 {
			msg = msg[:256]
		}
		info := BytesToBits(msg)
		dec, err := ViterbiDecode(ConvEncode(info), len(info))
		if err != nil {
			return false
		}
		got, err := BitsToBytes(dec)
		return err == nil && bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: random sparse channel errors (≤2 per 32-bit window) decode
// correctly — genuine coding gain, not a pass-through.
func TestPropertyConvCorrectsSparseErrors(t *testing.T) {
	rng := sim.NewRNG(99)
	for trial := 0; trial < 30; trial++ {
		msg := make([]byte, 24)
		for i := range msg {
			msg[i] = byte(rng.Uint64())
		}
		info := BytesToBits(msg)
		coded := ConvEncode(info)
		for w := 0; w+32 <= len(coded); w += 32 {
			coded[w+rng.Intn(32)] ^= 1
		}
		dec, err := ViterbiDecode(coded, len(info))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := BitsToBytes(dec)
		if !bytes.Equal(got, msg) {
			t.Fatalf("trial %d: sparse errors not corrected", trial)
		}
	}
}

// Property: V1's chain — Segment, EncodeBlock per code block, DecodeBlock,
// Reassemble — returns the transport block, single- and multi-block, and
// every coded block holds 2·(8·len+6) bits.
func TestPropertyBlockRoundTripThroughViterbi(t *testing.T) {
	rng := sim.NewRNG(7)
	for _, size := range []int{1, 8, 47, MaxCodeBlockBytes, 2*MaxCodeBlockBytes + 5} {
		tb := make([]byte, size)
		for i := range tb {
			tb[i] = byte(rng.Uint64())
		}
		var rx [][]byte
		for _, blk := range Segment(tb) {
			coded := EncodeBlock(blk)
			if len(coded) != 2*(8*len(blk)+6) {
				t.Fatalf("TB %dB: coded %d bits for a %dB block", size, len(coded), len(blk))
			}
			dec, err := DecodeBlock(coded, len(blk))
			if err != nil {
				t.Fatalf("TB %dB: %v", size, err)
			}
			rx = append(rx, dec)
		}
		got, err := Reassemble(rx, size)
		if err != nil || !bytes.Equal(got, tb) {
			t.Fatalf("TB %dB round trip: %v", size, err)
		}
	}
	if _, err := DecodeBlock(EncodeBlock([]byte{1, 2}), 3); err == nil {
		t.Fatal("DecodeBlock accepted a stream of the wrong length")
	}
}

func TestSegmentSingleBlock(t *testing.T) {
	tb := make([]byte, 100)
	blocks := Segment(tb)
	if len(blocks) != 1 {
		t.Fatalf("small TB produced %d blocks", len(blocks))
	}
	got, err := Reassemble(blocks, len(tb))
	if err != nil || !bytes.Equal(got, tb) {
		t.Fatalf("single block round trip: %v", err)
	}
}

func TestSegmentMultiBlock(t *testing.T) {
	tb := make([]byte, 5000)
	for i := range tb {
		tb[i] = byte(i * 31)
	}
	blocks := Segment(tb)
	if len(blocks) < 2 {
		t.Fatalf("5000B TB produced %d blocks", len(blocks))
	}
	for _, blk := range blocks {
		if len(blk) > MaxCodeBlockBytes {
			t.Fatalf("block size %d exceeds cap", len(blk))
		}
	}
	got, err := Reassemble(blocks, len(tb))
	if err != nil || !bytes.Equal(got, tb) {
		t.Fatalf("multi block round trip: %v", err)
	}
}

func TestReassembleDetectsCorruption(t *testing.T) {
	tb := make([]byte, 3000)
	blocks := Segment(tb)
	blocks[1][10] ^= 0xFF
	if _, err := Reassemble(blocks, len(tb)); err == nil {
		t.Fatal("corrupted code block accepted")
	}
	if _, err := Reassemble(nil, 10); err == nil {
		t.Fatal("empty blocks accepted")
	}
	if _, err := Reassemble([][]byte{{1, 2}}, 100); err == nil {
		t.Fatal("truncated block accepted")
	}
}

func TestPropertySegmentReassemble(t *testing.T) {
	f := func(tb []byte) bool {
		got, err := Reassemble(Segment(tb), len(tb))
		return err == nil && bytes.Equal(got, tb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkViterbi1KB(b *testing.B) {
	msg := make([]byte, 1024)
	info := BytesToBits(msg)
	coded := ConvEncode(info)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ViterbiDecode(coded, len(info)); err != nil {
			b.Fatal(err)
		}
	}
}
