package crypto5g

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/hex"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

// newKey expands a test key, failing the test on error.
func newKey(t testing.TB, key []byte) *Key {
	t.Helper()
	k, err := NewKey(key)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// fullCMAC is the whole 16-byte AES-CMAC of msg under k (RFC 4493), of which
// NIA2 keeps the leading MACSize bytes.
func fullCMAC(k *Key, msg []byte) [16]byte {
	k.cmac(nil, msg)
	return k.scratch
}

// nea2 enciphers data into a new slice.
func nea2(k *Key, count uint32, bearer byte, dir Direction, data []byte) []byte {
	out := make([]byte, len(data))
	k.NEA2(count, bearer, dir, out, data)
	return out
}

// RFC 4493 §4 test vectors for AES-128-CMAC.
func TestCMACRFC4493Vectors(t *testing.T) {
	key := "2b7e151628aed2a6abf7158809cf4f3c"
	msg := "6bc1bee22e409f96e93d7e117393172a" +
		"ae2d8a571e03ac9c9eb76fac45af8e51" +
		"30c81c46a35ce411e5fbc1191a0a52ef" +
		"f69f2445df4f9b17ad2b417be66c3710"
	cases := []struct {
		mlen int
		want string
	}{
		{0, "bb1d6929e95937287fa37d129b756746"},
		{16, "070a16b46b4d4144f79bdd9dd04a287c"},
		{40, "dfa66747de9ae63030ca32611497c827"},
		{64, "51f0bebf7e3b9d92fc49741779363cfe"},
	}
	k := newKey(t, unhex(t, key))
	m := unhex(t, msg)
	for _, c := range cases {
		got := fullCMAC(k, m[:c.mlen])
		if !bytes.Equal(got[:], unhex(t, c.want)) {
			t.Fatalf("CMAC(len=%d) = %x, want %s", c.mlen, got, c.want)
		}
	}
}

func TestCMACBadKey(t *testing.T) {
	if _, err := NewKey([]byte("short")); err == nil {
		t.Fatal("short key accepted")
	}
}

func TestNEA2RoundTrip(t *testing.T) {
	k := newKey(t, unhex(t, "000102030405060708090a0b0c0d0e0f"))
	plain := []byte("ping request, 64 bytes of ICMP payload ................")
	ct := nea2(k, 0x12345678, 5, Uplink, plain)
	if bytes.Equal(ct, plain) {
		t.Fatal("ciphertext equals plaintext")
	}
	pt := nea2(k, 0x12345678, 5, Uplink, ct)
	if !bytes.Equal(pt, plain) {
		t.Fatal("NEA2 round trip failed")
	}
}

func TestNEA2ParameterSensitivity(t *testing.T) {
	k := newKey(t, unhex(t, "000102030405060708090a0b0c0d0e0f"))
	plain := make([]byte, 32)
	base := nea2(k, 1, 1, Uplink, plain)
	cases := []struct {
		name string
		ct   []byte
	}{
		{"count", nea2(k, 2, 1, Uplink, plain)},
		{"bearer", nea2(k, 1, 2, Uplink, plain)},
		{"direction", nea2(k, 1, 1, Downlink, plain)},
	}
	for _, c := range cases {
		if bytes.Equal(c.ct, base) {
			t.Errorf("changing %s did not change the keystream", c.name)
		}
	}
}

func TestNEA2KeySize(t *testing.T) {
	if _, err := NewKey([]byte("short")); err == nil {
		t.Fatal("short key accepted")
	}
}

func TestNIA2VerifyAndTamperDetection(t *testing.T) {
	k := newKey(t, unhex(t, "c0ffee00c0ffee00c0ffee00c0ffee00"))
	msg := []byte("scheduling request: one bit, but integrity-protected here")
	mac := k.NIA2(7, 3, Downlink, msg)
	if k.NIA2(7, 3, Downlink, msg) != mac {
		t.Fatal("valid MAC rejected")
	}
	// Any tamper must fail.
	if k.NIA2(8, 3, Downlink, msg) == mac {
		t.Fatal("wrong COUNT accepted")
	}
	if k.NIA2(7, 4, Downlink, msg) == mac {
		t.Fatal("wrong bearer accepted")
	}
	if k.NIA2(7, 3, Uplink, msg) == mac {
		t.Fatal("wrong direction accepted")
	}
	tampered := bytes.Clone(msg)
	tampered[0] ^= 1
	if k.NIA2(7, 3, Downlink, tampered) == mac {
		t.Fatal("tampered message accepted")
	}
	var badMAC [MACSize]byte
	copy(badMAC[:], mac[:])
	badMAC[0] ^= 0x80
	if k.NIA2(7, 3, Downlink, msg) == badMAC {
		t.Fatal("tampered MAC accepted")
	}
}

func TestNIA2KeySize(t *testing.T) {
	if _, err := NewKey(nil); err == nil {
		t.Fatal("nil key accepted")
	}
}

func TestGFDouble(t *testing.T) {
	// Doubling without MSB set is a plain shift.
	in := [16]byte{0: 0x01}
	out := gfDouble(in)
	if out[0] != 0x02 {
		t.Fatalf("gfDouble shift wrong: %x", out)
	}
	// Doubling with MSB set applies the 0x87 reduction.
	in = [16]byte{0: 0x80}
	out = gfDouble(in)
	want := [16]byte{15: 0x87}
	if out != want {
		t.Fatalf("gfDouble reduction wrong: %x", out)
	}
}

// Property: NEA2 is an involution and ciphertext differs from plaintext for
// non-trivial inputs (keystream is never all-zero for AES with these IVs).
func TestPropertyNEA2Involution(t *testing.T) {
	key := make([]byte, 16)
	for i := range key {
		key[i] = byte(i * 17)
	}
	k := newKey(t, key)
	f := func(count uint32, bearer uint8, data []byte) bool {
		ct := nea2(k, count, bearer&0x1F, Uplink, data)
		pt := nea2(k, count, bearer&0x1F, Uplink, ct)
		return bytes.Equal(pt, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: distinct messages yield distinct CMACs (no accidental collisions
// in random testing).
func TestPropertyNIA2NoTrivialCollisions(t *testing.T) {
	k := newKey(t, make([]byte, 16))
	f := func(a, b []byte) bool {
		if bytes.Equal(a, b) {
			return true
		}
		ma := k.NIA2(0, 0, Uplink, a)
		mb := k.NIA2(0, 0, Uplink, b)
		// 32-bit MACs can collide, but not in a few hundred random trials.
		return ma != mb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkNEA2_1500B(b *testing.B) {
	k := newKey(b, make([]byte, 16))
	data := make([]byte, 1500)
	b.ReportAllocs()
	b.SetBytes(1500)
	for i := 0; i < b.N; i++ {
		k.NEA2(uint32(i), 1, Uplink, data, data)
	}
}

func BenchmarkNIA2_1500B(b *testing.B) {
	k := newKey(b, make([]byte, 16))
	data := make([]byte, 1500)
	b.ReportAllocs()
	b.SetBytes(1500)
	for i := 0; i < b.N; i++ {
		k.NIA2(uint32(i), 1, Uplink, data)
	}
}

// TS 33.401 Annex C.2.1, 128-NEA2 test set 1: 253 bits, so the last three
// bits of the final octet are outside the message and masked off.
func TestNEA2TS33401TestSet1(t *testing.T) {
	key := unhex(t, "d3c5d592327fb11c4035c6680af8c6d1")
	plain := unhex(t, "981ba6824c1bfb1ab485472029b71d808ce33e2cc3c0b5fc1f3de8a6dc66b1f0")
	want := unhex(t, "e9fed8a63d155304d71df20bf3e82214b20ed7dad2f233dc3c22d7bdeeed8e78")
	got := nea2(newKey(t, key), 0x398a59b4, 0x15, Downlink, plain)
	got[31] &^= 0x07
	want[31] &^= 0x07
	if !bytes.Equal(got, want) {
		t.Fatalf("NEA2 test set 1 = %x, want %x", got, want)
	}
}

// TS 33.401 Annex C.2.2, 128-NIA2 test set 1. The CMAC input starts with the
// 64-bit COUNT‖BEARER‖DIRECTION‖0²⁶ of B.2.3, not the 128-bit NEA2 counter
// block: prefixing 16 bytes gives a1e25949 instead of b93787e6.
func TestNIA2TS33401TestSet1(t *testing.T) {
	key := unhex(t, "d3c5d592327fb11c4035c6680af8c6d1")
	msg := unhex(t, "484583d5afe082ae")
	got := newKey(t, key).NIA2(0x398a59b4, 0x1a, Downlink, msg)
	if want := unhex(t, "b93787e6"); !bytes.Equal(got[:], want) {
		t.Fatalf("NIA2 test set 1 = %x, want %x", got, want)
	}
}

// refNEA2 and refNIA2 are straightforward one-shot implementations — a fresh
// key schedule, cipher.NewCTR, and a CMAC over the concatenated input — that
// the keyed methods must match byte for byte.
func refNEA2(key []byte, count uint32, bearer byte, dir Direction, data []byte) []byte {
	block, err := aes.NewCipher(key)
	if err != nil {
		panic(err)
	}
	var iv [16]byte
	h := header(count, bearer, dir)
	copy(iv[:], h[:])
	out := make([]byte, len(data))
	cipher.NewCTR(block, iv[:]).XORKeyStream(out, data)
	return out
}

func refNIA2(key []byte, count uint32, bearer byte, dir Direction, msg []byte) [MACSize]byte {
	h := header(count, bearer, dir)
	full := refCMAC(key, append(h[:], msg...))
	return [MACSize]byte(full[:MACSize])
}

func refCMAC(key, m []byte) [16]byte {
	block, err := aes.NewCipher(key)
	if err != nil {
		panic(err)
	}
	var l [16]byte
	block.Encrypt(l[:], l[:])
	k1 := gfDouble(l)
	k2 := gfDouble(k1)
	n := (len(m) + 15) / 16
	var last [16]byte
	if n > 0 && len(m)%16 == 0 {
		copy(last[:], m[(n-1)*16:])
		xor16(&last, &k1)
	} else {
		n = max(n, 1)
		rem := m[(n-1)*16:]
		copy(last[:], rem)
		last[len(rem)] = 0x80
		xor16(&last, &k2)
	}
	var x [16]byte
	for i := 0; i < n-1; i++ {
		xor16(&x, (*[16]byte)(m[i*16:]))
		block.Encrypt(x[:], x[:])
	}
	xor16(&x, &last)
	block.Encrypt(x[:], x[:])
	return x
}

// keyedCase is one random input of the differential test: a key, COUNT,
// 5-bit bearer, direction and a message of 0–100 bytes, with lengths that
// end on a block boundary (CMAC's K1 branch) drawn as often as the rest.
type keyedCase struct {
	Key    [KeySize]byte
	Count  uint32
	Bearer byte
	Dir    Direction
	Msg    []byte
}

func (keyedCase) Generate(r *rand.Rand, _ int) reflect.Value {
	var c keyedCase
	r.Read(c.Key[:])
	c.Count = r.Uint32()
	c.Bearer = byte(r.Intn(32))
	c.Dir = Direction(r.Intn(2))
	n := r.Intn(101)
	if r.Intn(2) == 0 {
		// A multiple of 8: n%16 == 0 fills CMAC's last block exactly, and
		// n%16 == 8 does the same for NIA2's 8-byte header plus n.
		n = 8 * r.Intn(13)
	}
	c.Msg = make([]byte, n)
	r.Read(c.Msg)
	return reflect.ValueOf(c)
}

// Property: the keyed methods agree with the one-shot reference on every
// input, and a Key reused across inputs carries no state from one call to
// the next.
func TestPropertyKeyedMatchesReference(t *testing.T) {
	f := func(c keyedCase) bool {
		k, err := NewKey(c.Key[:])
		if err != nil {
			return false
		}
		for range 2 {
			ct := make([]byte, len(c.Msg))
			k.NEA2(c.Count, c.Bearer, c.Dir, ct, c.Msg)
			if !bytes.Equal(ct, refNEA2(c.Key[:], c.Count, c.Bearer, c.Dir, c.Msg)) {
				return false
			}
			if k.NIA2(c.Count, c.Bearer, c.Dir, c.Msg) != refNIA2(c.Key[:], c.Count, c.Bearer, c.Dir, c.Msg) {
				return false
			}
			if fullCMAC(k, c.Msg) != refCMAC(c.Key[:], c.Msg) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// NEA2 into the source buffer itself (in place) equals NEA2 into a fresh one.
func TestKeyNEA2InPlace(t *testing.T) {
	k, err := NewKey(make([]byte, KeySize))
	if err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte("in place "), 7)
	want := make([]byte, len(msg))
	k.NEA2(9, 3, Uplink, want, msg)
	k.NEA2(9, 3, Uplink, msg, msg)
	if !bytes.Equal(msg, want) {
		t.Fatalf("in-place NEA2 = %x, want %x", msg, want)
	}
}

// The keyed hot path allocates nothing once the Key exists.
func TestKeyZeroAlloc(t *testing.T) {
	k, err := NewKey(bytes.Repeat([]byte{0x5A}, KeySize))
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 64)
	dst := make([]byte, len(msg))
	if n := testing.AllocsPerRun(100, func() {
		k.NIA2(1, 2, Uplink, msg)
	}); n != 0 {
		t.Errorf("Key.NIA2: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		k.NEA2(1, 2, Uplink, dst, msg)
	}); n != 0 {
		t.Errorf("Key.NEA2: %v allocs/op, want 0", n)
	}
}
