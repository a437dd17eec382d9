// Package crypto5g implements the 128-NEA2 confidentiality and 128-NIA2
// integrity algorithms used by the PDCP layer (TS 33.501 Annex D, which
// defers to TS 33.401 Annex B): AES-128 in counter mode for ciphering and
// AES-128 CMAC (RFC 4493 / NIST SP 800-38B) for the 32-bit MAC-I.
//
// The CMAC core is implemented here from first principles on top of
// crypto/aes — the standard library has no CMAC — and is validated against
// the RFC 4493 and TS 33.401 Annex C test vectors in the package tests.
//
// A Key holds the expanded AES key and the CMAC subkeys of one 128-bit key,
// so a PDCP entity pays the key schedule once and every NEA2/NIA2 call after
// that allocates nothing. The package-level functions are one-shot wrappers
// that build a Key per call.
package crypto5g

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
)

// Direction of a PDU, part of both algorithms' input.
type Direction byte

const (
	Uplink   Direction = 0
	Downlink Direction = 1
)

// KeySize is the 128-bit key size of NEA2/NIA2.
const KeySize = 16

// MACSize is the size of the PDCP MAC-I in bytes.
const MACSize = 4

// Key is one expanded 128-bit NEA2/NIA2 key. Its methods reuse scratch space
// inside the struct, so a Key must not be used by two goroutines at once.
type Key struct {
	block   cipher.Block
	k1, k2  [16]byte // CMAC subkeys (RFC 4493 §2.3)
	ctr     [16]byte // NEA2 counter block
	scratch [16]byte // NEA2 keystream block, or the CMAC chaining value
}

// NewKey expands a 16-byte key and derives its CMAC subkeys.
func NewKey(key []byte) (*Key, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("crypto5g: key must be %d bytes, got %d", KeySize, len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	k := &Key{block: block}
	block.Encrypt(k.k1[:], k.k1[:])
	k.k1 = gfDouble(k.k1)
	k.k2 = gfDouble(k.k1)
	return k, nil
}

// header builds the 64-bit COUNT‖BEARER‖DIRECTION‖0²⁶ value both algorithms
// start from (TS 33.401 B.1.3/B.2.3). NEA2 uses it as the high half of the
// initial counter block; NIA2 prepends it to the message.
func header(count uint32, bearer byte, dir Direction) [8]byte {
	var h [8]byte
	binary.BigEndian.PutUint32(h[:], count)
	h[4] = (bearer&0x1F)<<3 | (byte(dir)&1)<<2
	return h
}

// NEA2 XORs the 128-NEA2 keystream for (count, bearer, dir) over src into
// dst, which must be at least len(src) long. dst and src may be the same
// slice: CTR is an involution, so the same call enciphers and deciphers.
func (k *Key) NEA2(count uint32, bearer byte, dir Direction, dst, src []byte) {
	h := header(count, bearer, dir)
	copy(k.ctr[:8], h[:])
	for i := 0; len(src) > 0; i++ {
		binary.BigEndian.PutUint64(k.ctr[8:], uint64(i))
		k.block.Encrypt(k.scratch[:], k.ctr[:])
		n := subtle.XORBytes(dst, src, k.scratch[:])
		dst, src = dst[n:], src[n:]
	}
}

// NIA2 computes the 32-bit 128-NIA2 MAC-I of msg: the leading bytes of the
// CMAC over the 64-bit header followed by msg.
func (k *Key) NIA2(count uint32, bearer byte, dir Direction, msg []byte) [MACSize]byte {
	h := header(count, bearer, dir)
	k.cmac(h[:], msg)
	return [MACSize]byte(k.scratch[:MACSize])
}

// cmac computes the AES-CMAC of prefix‖msg into k.scratch without
// concatenating them. prefix must be shorter than one block.
func (k *Key) cmac(prefix, msg []byte) {
	x := &k.scratch
	*x = [16]byte{}
	total := len(prefix) + len(msg)
	n := max((total+15)/16, 1)
	for i := 0; i < n-1; i++ {
		absorb(x, prefix, msg, 16*i, 16)
		k.block.Encrypt(x[:], x[:])
	}
	rem := total - 16*(n-1)
	absorb(x, prefix, msg, 16*(n-1), rem)
	if total > 0 && rem == 16 {
		xor16(x, &k.k1)
	} else {
		x[rem] ^= 0x80
		xor16(x, &k.k2)
	}
	k.block.Encrypt(x[:], x[:])
}

// absorb XORs the n bytes of prefix‖msg starting at off into x.
func absorb(x *[16]byte, prefix, msg []byte, off, n int) {
	dst := x[:n]
	if off < len(prefix) {
		m := subtle.XORBytes(dst, dst, prefix[off:])
		dst, off = dst[m:], off+m
	}
	if len(dst) > 0 {
		off -= len(prefix)
		subtle.XORBytes(dst, dst, msg[off:off+len(dst)])
	}
}

// NEA2 enciphers (or deciphers — CTR is an involution) data into a new
// slice. count is the PDCP COUNT, bearer the 5-bit bearer identity.
func NEA2(key []byte, count uint32, bearer byte, dir Direction, data []byte) ([]byte, error) {
	k, err := NewKey(key)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(data))
	k.NEA2(count, bearer, dir, out, data)
	return out, nil
}

// NIA2 computes the 32-bit MAC-I over message with the given parameters.
func NIA2(key []byte, count uint32, bearer byte, dir Direction, message []byte) ([MACSize]byte, error) {
	k, err := NewKey(key)
	if err != nil {
		return [MACSize]byte{}, err
	}
	return k.NIA2(count, bearer, dir, message), nil
}

// VerifyNIA2 recomputes the MAC-I and compares in constant time.
func VerifyNIA2(key []byte, count uint32, bearer byte, dir Direction, message []byte, mac [MACSize]byte) bool {
	want, err := NIA2(key, count, bearer, dir, message)
	return err == nil && subtle.ConstantTimeCompare(want[:], mac[:]) == 1
}

// CMAC computes the full 16-byte AES-128-CMAC of message (RFC 4493).
func CMAC(key, message []byte) ([16]byte, error) {
	k, err := NewKey(key)
	if err != nil {
		return [16]byte{}, err
	}
	k.cmac(nil, message)
	return k.scratch, nil
}

// gfDouble doubles a 128-bit value in GF(2^128) (left shift, conditional
// XOR of Rb=0x87). Constant-time: the reduction is applied via a mask.
func gfDouble(in [16]byte) (out [16]byte) {
	var carry byte
	for i := 15; i >= 0; i-- {
		out[i] = in[i]<<1 | carry
		carry = in[i] >> 7
	}
	out[15] ^= 0x87 & byte(0-int8(carry)) // mask is 0xFF iff MSB was set
	return
}

func xor16(dst, src *[16]byte) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}
