package fec

import (
	"bytes"
	"fmt"

	"urllcsim/internal/crc"
)

// MaxCodeBlockBytes is the maximum code-block payload before segmentation.
// TS 38.212 caps LDPC base graph 1 code blocks at 8448 bits; we keep the
// same limit (1056 bytes) so segmentation kicks in at realistic sizes.
const MaxCodeBlockBytes = 1056

// Segment splits a transport block into code blocks following the TS 38.212
// §5.2.2 structure: the TB gets a CRC24A, and — only when more than one code
// block results — each block additionally gets a CRC24B. Blocks are padded
// to equal length with zero filler (prepended per the standard; we append,
// which is equivalent for the simulator and simpler to strip given the
// recorded TB length).
func Segment(tb []byte) [][]byte {
	withCRC := crc.Attach(crc.CRC24A, tb)
	if len(withCRC) <= MaxCodeBlockBytes {
		return [][]byte{withCRC}
	}
	per := MaxCodeBlockBytes - 3 // room for CRC24B
	n := (len(withCRC) + per - 1) / per
	// Equal-size blocks.
	size := (len(withCRC) + n - 1) / n
	blocks := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		lo := i * size
		hi := lo + size
		if hi > len(withCRC) {
			hi = len(withCRC)
		}
		blk := make([]byte, size)
		copy(blk, withCRC[lo:hi])
		blocks = append(blocks, crc.Attach(crc.CRC24B, blk))
	}
	return blocks
}

// Reassemble inverts Segment. tbLen is the original transport-block length
// in bytes (carried by the MAC in the real system). It verifies every code
// block CRC and the transport block CRC; any failure returns an error —
// in the simulator that failure is what triggers a HARQ retransmission.
func Reassemble(blocks [][]byte, tbLen int) ([]byte, error) {
	if len(blocks) == 0 {
		return nil, fmt.Errorf("fec: no code blocks")
	}
	var withCRC []byte
	if len(blocks) == 1 {
		withCRC = blocks[0]
	} else {
		var buf bytes.Buffer
		for i, blk := range blocks {
			payload, ok := crc.Check(crc.CRC24B, blk)
			if !ok {
				return nil, fmt.Errorf("fec: code block %d CRC failure", i)
			}
			buf.Write(payload)
		}
		withCRC = buf.Bytes()
	}
	want := tbLen + 3
	if len(withCRC) < want {
		return nil, fmt.Errorf("fec: reassembled %d bytes, need %d", len(withCRC), want)
	}
	tb, ok := crc.Check(crc.CRC24A, withCRC[:want])
	if !ok {
		return nil, fmt.Errorf("fec: transport block CRC failure")
	}
	return tb, nil
}

// EncodeBlock runs one code block through the convolutional encoder: the
// block's bits, MSB first, zero-flushed to 2·(8·len(block)+6) coded bits.
func EncodeBlock(block []byte) []Bit {
	return ConvEncode(BytesToBits(block))
}

// DecodeBlock inverts EncodeBlock for a block of blockLen bytes.
func DecodeBlock(received []Bit, blockLen int) ([]byte, error) {
	info, err := ViterbiDecode(received, blockLen*8)
	if err != nil {
		return nil, err
	}
	return BitsToBytes(info)
}
