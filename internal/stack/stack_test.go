package stack

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"urllcsim/internal/channel"
	"urllcsim/internal/crypto5g"
	"urllcsim/internal/modulation"
	"urllcsim/internal/pdu"
	"urllcsim/internal/sim"
)

func testKeys() ([]byte, []byte) {
	ck := make([]byte, 16)
	ik := make([]byte, 16)
	for i := range ck {
		ck[i] = byte(i)
		ik[i] = byte(0xF0 - i)
	}
	return ck, ik
}

func TestSDAPEntity(t *testing.T) {
	s := &SDAP{QFI: 5}
	data := []byte("app payload")
	enc := s.Encap(data)
	got, err := s.Decap(enc)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("SDAP round trip: %v", err)
	}
	// Wrong QFI is rejected.
	other := &SDAP{QFI: 6}
	if _, err := other.Decap(enc); err == nil {
		t.Fatal("QFI mismatch accepted")
	}
}

func TestPDCPProtectUnprotect(t *testing.T) {
	ck, ik := testKeys()
	tx := &PDCP{SNBits: pdu.PDCPSN12, Bearer: 1, Direction: crypto5g.Uplink, CipherKey: ck, IntegKey: ik}
	rx := &PDCP{SNBits: pdu.PDCPSN12, Bearer: 1, Direction: crypto5g.Uplink, CipherKey: ck, IntegKey: ik}
	for i := 0; i < 50; i++ {
		msg := []byte{byte(i), 1, 2, 3}
		prot, err := tx.Protect(msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rx.Unprotect(prot)
		if err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("PDCP %d: %v", i, err)
		}
	}
}

func TestPDCPCiphertextNotPlaintext(t *testing.T) {
	ck, _ := testKeys()
	tx := &PDCP{SNBits: pdu.PDCPSN12, Bearer: 1, Direction: crypto5g.Downlink, CipherKey: ck}
	msg := []byte("secret user data, clearly visible if ciphering is broken")
	prot, err := tx.Protect(msg)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(prot, msg[:16]) {
		t.Fatal("plaintext leaked into PDCP PDU")
	}
}

func TestPDCPIntegrityTamperDetected(t *testing.T) {
	ck, ik := testKeys()
	tx := &PDCP{SNBits: pdu.PDCPSN12, Bearer: 2, Direction: crypto5g.Uplink, CipherKey: ck, IntegKey: ik}
	rx := &PDCP{SNBits: pdu.PDCPSN12, Bearer: 2, Direction: crypto5g.Uplink, CipherKey: ck, IntegKey: ik}
	prot, _ := tx.Protect([]byte("do not touch"))
	prot[len(prot)-5] ^= 0x40 // tamper with ciphertext
	if _, err := rx.Unprotect(prot); err == nil {
		t.Fatal("tampered PDU passed integrity")
	}
}

func TestPDCPWrongKeysFail(t *testing.T) {
	ck, ik := testKeys()
	tx := &PDCP{SNBits: pdu.PDCPSN12, Bearer: 2, Direction: crypto5g.Uplink, CipherKey: ck, IntegKey: ik}
	rx := &PDCP{SNBits: pdu.PDCPSN12, Bearer: 2, Direction: crypto5g.Uplink, CipherKey: ck, IntegKey: ck}
	prot, _ := tx.Protect([]byte("hello"))
	if _, err := rx.Unprotect(prot); err == nil {
		t.Fatal("wrong integrity key accepted")
	}
}

func TestPDCPSNWrapAround(t *testing.T) {
	ck, _ := testKeys()
	tx := &PDCP{SNBits: pdu.PDCPSN12, Bearer: 1, Direction: crypto5g.Uplink, CipherKey: ck}
	rx := &PDCP{SNBits: pdu.PDCPSN12, Bearer: 1, Direction: crypto5g.Uplink, CipherKey: ck}
	// Drive COUNT past the 12-bit SN wrap.
	for i := 0; i < 5000; i++ {
		msg := []byte{byte(i), byte(i >> 8)}
		prot, err := tx.Protect(msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rx.Unprotect(prot)
		if err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("wrap failure at COUNT %d: %v", i, err)
		}
	}
}

func TestRLCQueue(t *testing.T) {
	r := NewRLC()
	r.Enqueue(RLCQueued{ID: 1, Data: []byte("aa"), EnqueuedAt: 10})
	r.Enqueue(RLCQueued{ID: 2, Data: []byte("bbbb"), EnqueuedAt: 20})
	r.Enqueue(RLCQueued{ID: 3, Data: []byte("c"), EnqueuedAt: 30})
	if r.QueueLen() != 3 {
		t.Fatalf("queue: %d items", r.QueueLen())
	}
	taken := r.DequeueIDs([]int{1, 3})
	if len(taken) != 2 || taken[0].ID != 1 || taken[1].ID != 3 {
		t.Fatalf("dequeue = %+v", taken)
	}
	if r.QueueLen() != 1 || r.Peek()[0].ID != 2 {
		t.Fatal("remaining queue wrong")
	}
}

func TestRLCSegmentReceive(t *testing.T) {
	tx := NewRLC()
	rx := NewRLC()
	sdu := make([]byte, 500)
	for i := range sdu {
		sdu[i] = byte(i * 7)
	}
	pdus, err := tx.Segment(sdu, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(pdus) < 4 {
		t.Fatalf("segments = %d", len(pdus))
	}
	var got []byte
	for i, p := range pdus {
		out, err := rx.Receive(p)
		if err != nil {
			t.Fatalf("receive %d: %v", i, err)
		}
		if i < len(pdus)-1 && out != nil {
			t.Fatalf("SDU completed early at %d", i)
		}
		if out != nil {
			got = out
		}
	}
	if !bytes.Equal(got, sdu) {
		t.Fatal("reassembled SDU differs")
	}
}

func TestRLCInterleavedSNs(t *testing.T) {
	tx := NewRLC()
	rx := NewRLC()
	a, _ := tx.Segment(bytes.Repeat([]byte{1}, 300), 128)
	a = cloneAll(a) // the next Segment reuses the entity's scratch
	b, _ := tx.Segment(bytes.Repeat([]byte{2}, 300), 128)
	// Interleave the two SDUs' segments.
	var done int
	for i := 0; i < len(a) || i < len(b); i++ {
		for _, set := range [][][]byte{a, b} {
			if i < len(set) {
				out, err := rx.Receive(set[i])
				if err != nil {
					t.Fatal(err)
				}
				if out != nil {
					done++
				}
			}
		}
	}
	if done != 2 {
		t.Fatalf("completed %d SDUs, want 2", done)
	}
}

func TestRLCSNIncrements(t *testing.T) {
	tx := NewRLC()
	p1, _ := tx.Segment([]byte("x"), 100)
	p1 = cloneAll(p1) // the next Segment reuses the entity's scratch
	p2, _ := tx.Segment(bytes.Repeat([]byte{9}, 300), 100)
	full, err := pdu.DecodeRLCUM(p1[0])
	if err != nil || full.SI != pdu.SIFull {
		t.Fatal("first SDU should be SIFull")
	}
	seg, err := pdu.DecodeRLCUM(p2[0])
	if err != nil || seg.SN != 1 {
		t.Fatalf("second SDU SN = %d, want 1", seg.SN)
	}
}

func TestMACMuxDemux(t *testing.T) {
	m := &MAC{LCID: 4}
	payloads := [][]byte{[]byte("pdu one"), []byte("pdu two")}
	tb, err := m.BuildTB(payloads, 64)
	if err != nil || len(tb) != 64 {
		t.Fatalf("BuildTB: %d %v", len(tb), err)
	}
	got, err := m.ParseTB(tb)
	if err != nil || len(got) != 2 || !bytes.Equal(got[0], payloads[0]) {
		t.Fatalf("ParseTB: %v %v", got, err)
	}
	// A different LCID sees nothing.
	other := &MAC{LCID: 5}
	none, err := other.ParseTB(tb)
	if err != nil || len(none) != 0 {
		t.Fatal("LCID filter leaked")
	}
}

func TestPHYAnalyticGoodAndBadSNR(t *testing.T) {
	mcs, _ := modulation.MCSByIndex(10)
	rng := sim.NewRNG(1)
	good := NewPHY(PHYAnalytic, mcs, channel.AWGN{SNR: 30}, rng)
	tb := make([]byte, 200)
	for i := 0; i < 100; i++ {
		got, err := good.Transmit(tb, 0)
		if err != nil || !bytes.Equal(got, tb) {
			t.Fatalf("good channel lost a block: %v", err)
		}
	}
	bad := NewPHY(PHYAnalytic, mcs, channel.AWGN{SNR: -5}, rng)
	losses := 0
	for i := 0; i < 100; i++ {
		if _, err := bad.Transmit(tb, 0); err != nil {
			losses++
		}
	}
	if losses < 95 {
		t.Fatalf("bad channel lost only %d/100", losses)
	}
}

// A received block is the receiver's own buffer: it never aliases the
// sender's, two blocks in flight never share one, and once released its
// buffer carries the next block, so a steady-state Transmit allocates
// nothing.
func TestPHYReleaseZeroAllocs(t *testing.T) {
	mcs, _ := modulation.MCSByIndex(10)
	phy := NewPHY(PHYAnalytic, mcs, channel.AWGN{SNR: 30}, sim.NewRNG(1))
	tb := bytes.Repeat([]byte{0xA5}, 48)
	a, errA := phy.Transmit(tb, 0)
	b, errB := phy.Transmit(tb[:40], 0)
	if errA != nil || errB != nil {
		t.Fatalf("good channel lost a block: %v %v", errA, errB)
	}
	tb[0] = 0 // the sender reuses its buffer
	if a[0] != 0xA5 || len(b) != 40 || &a[0] == &b[0] {
		t.Fatal("received blocks alias the sender or each other")
	}
	phy.Release(a)
	phy.Release(b)
	n := testing.AllocsPerRun(100, func() {
		rx, err := phy.Transmit(tb, 0)
		if err != nil || !bytes.Equal(rx, tb) {
			t.Fatalf("round trip gave %x, %v", rx, err)
		}
		phy.Release(rx)
	})
	if n != 0 {
		t.Fatalf("Transmit+Release: %v allocs, want 0", n)
	}
}

func TestPHYFullChain(t *testing.T) {
	mcs, _ := modulation.MCSByIndex(3) // QPSK
	rng := sim.NewRNG(2)
	phy := NewPHY(PHYFull, mcs, channel.AWGN{SNR: 9}, rng)
	tb := make([]byte, 120)
	for i := range tb {
		tb[i] = byte(i * 13)
	}
	ok := 0
	for i := 0; i < 20; i++ {
		got, err := phy.Transmit(tb, sim.Time(i))
		if err == nil && bytes.Equal(got, tb) {
			ok++
		}
	}
	// QPSK@9dB → BER≈1e-5 → with K=7 coding essentially always decodable.
	if ok < 19 {
		t.Fatalf("full chain succeeded only %d/20", ok)
	}
}

func TestPHYFullChainFailsInDeepFade(t *testing.T) {
	mcs, _ := modulation.MCSByIndex(3)
	rng := sim.NewRNG(3)
	phy := NewPHY(PHYFull, mcs, channel.AWGN{SNR: -3}, rng)
	tb := make([]byte, 120)
	fails := 0
	for i := 0; i < 10; i++ {
		if _, err := phy.Transmit(tb, sim.Time(i)); err != nil {
			fails++
		}
	}
	if fails < 9 {
		t.Fatalf("deep fade decoded %d/10 blocks — CRC must catch garbage", 10-fails)
	}
}

func TestPHYAirTime(t *testing.T) {
	mcs, _ := modulation.MCSByIndex(10)
	phy := NewPHY(PHYAnalytic, mcs, channel.AWGN{SNR: 20}, sim.NewRNG(4))
	sym := 250 * sim.Microsecond / 14
	at, err := phy.AirTime(32, 106, sym)
	if err != nil {
		t.Fatal(err)
	}
	if at < sym || at > 2*sym {
		t.Fatalf("32B air time = %v, want 1–2 symbols", at)
	}
}

// Full UL data plane: APP → SDAP → PDCP → RLC → MAC → PHY → MAC → RLC →
// PDCP → SDAP with real bytes end to end.
func TestFullUserPlaneChain(t *testing.T) {
	ck, ik := testKeys()
	app := []byte("ping request: 32 bytes payload..")

	txSDAP := &SDAP{QFI: 1}
	txPDCP := &PDCP{SNBits: pdu.PDCPSN12, Bearer: 4, Direction: crypto5g.Uplink, CipherKey: ck, IntegKey: ik}
	txRLC := NewRLC()
	txMAC := &MAC{LCID: 4}

	rxSDAP := &SDAP{QFI: 1}
	rxPDCP := &PDCP{SNBits: pdu.PDCPSN12, Bearer: 4, Direction: crypto5g.Uplink, CipherKey: ck, IntegKey: ik}
	rxRLC := NewRLC()
	rxMAC := &MAC{LCID: 4}

	mcs, _ := modulation.MCSByIndex(10)
	phy := NewPHY(PHYAnalytic, mcs, channel.AWGN{SNR: 25}, sim.NewRNG(5))

	sdap := txSDAP.Encap(app)
	pdcp, err := txPDCP.Protect(sdap)
	if err != nil {
		t.Fatal(err)
	}
	rlcs, err := txRLC.Segment(pdcp, 64)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := txMAC.BuildTB(rlcs, 128)
	if err != nil {
		t.Fatal(err)
	}
	rxTB, err := phy.Transmit(tb, 0)
	if err != nil {
		t.Fatal(err)
	}
	payloads, err := rxMAC.ParseTB(rxTB)
	if err != nil {
		t.Fatal(err)
	}
	var sdu []byte
	for _, p := range payloads {
		out, err := rxRLC.Receive(p)
		if err != nil {
			t.Fatal(err)
		}
		if out != nil {
			sdu = out
		}
	}
	if sdu == nil {
		t.Fatal("RLC never completed the SDU")
	}
	plain, err := rxPDCP.Unprotect(sdu)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rxSDAP.Decap(plain)
	if err != nil || !bytes.Equal(got, app) {
		t.Fatalf("end-to-end chain: %q %v", got, err)
	}
}

// cloneAll deep-copies PDUs an entity returned, so they outlive its next
// call.
func cloneAll(pdus [][]byte) [][]byte {
	out := make([][]byte, len(pdus))
	for i, p := range pdus {
		out[i] = bytes.Clone(p)
	}
	return out
}

// A steady-state Protect+Unprotect pair allocates nothing: the encoded PDU
// and the deciphered SDU live in the entities' scratch, and the keys were
// expanded once.
func TestPDCPPairAllocs(t *testing.T) {
	ck, ik := testKeys()
	tx := &PDCP{SNBits: pdu.PDCPSN12, Bearer: 1, Direction: crypto5g.Uplink, CipherKey: ck, IntegKey: ik}
	rx := &PDCP{SNBits: pdu.PDCPSN12, Bearer: 1, Direction: crypto5g.Uplink, CipherKey: ck, IntegKey: ik}
	msg := make([]byte, 32)
	pair := func() {
		prot, err := tx.Protect(msg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rx.Unprotect(prot); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, pair); n != 0 {
		t.Fatalf("Protect+Unprotect: %v allocs, want 0", n)
	}
}

// The other entity pairs are allocation-free at steady state too, and each
// still gives the payload back.
func TestEntityPairZeroAllocs(t *testing.T) {
	payload := make([]byte, 32)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	sdap := &SDAP{QFI: 1}
	rlcTx, rlcRx := NewRLC(), NewRLC()
	mac := &MAC{LCID: 4}
	pairs := []struct {
		name string
		pair func() ([]byte, error)
	}{
		{"sdap", func() ([]byte, error) { return sdap.Decap(sdap.Encap(payload)) }},
		{"rlc", func() ([]byte, error) {
			segs, err := rlcTx.Segment(payload, 64)
			if err != nil {
				return nil, err
			}
			return rlcRx.Receive(segs[0])
		}},
		// The literal stays on the stack only because BuildTB does not
		// retain its argument.
		{"mac", func() ([]byte, error) {
			tb, err := mac.BuildTB([][]byte{payload}, 64)
			if err != nil {
				return nil, err
			}
			got, err := mac.ParseTB(tb)
			if err != nil || len(got) != 1 {
				return nil, fmt.Errorf("parsed %d payloads: %v", len(got), err)
			}
			return got[0], nil
		}},
	}
	for _, p := range pairs {
		check := func() {
			got, err := p.pair()
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("%s: round trip gave %x, %v", p.name, got, err)
			}
		}
		check()
		if n := testing.AllocsPerRun(200, check); n != 0 {
			t.Errorf("%s encode+decode: %v allocs, want 0", p.name, n)
		}
	}
}

// A segmented SDU's RLC entity pair reuses its encode scratch too; only
// reassembly, which owns the SDU it returns, allocates.
func TestRLCSegmentZeroAllocs(t *testing.T) {
	tx := NewRLC()
	sdu := bytes.Repeat([]byte{3}, 300)
	tx.Segment(sdu, 64)
	if n := testing.AllocsPerRun(100, func() { tx.Segment(sdu, 64) }); n != 0 {
		t.Fatalf("Segment of a 5-segment SDU: %v allocs, want 0", n)
	}
}

// A malformed key is a one-line error from either direction, not a panic.
func TestPDCPBadKeyIsError(t *testing.T) {
	_, ik := testKeys()
	tx := &PDCP{SNBits: pdu.PDCPSN12, Bearer: 1, Direction: crypto5g.Uplink, CipherKey: []byte("short"), IntegKey: ik}
	rx := &PDCP{SNBits: pdu.PDCPSN12, Bearer: 1, Direction: crypto5g.Uplink, CipherKey: []byte("short"), IntegKey: ik}
	_, errTx := tx.Protect([]byte("payload"))
	_, errRx := rx.Unprotect([]byte{0x80, 0x00, 1, 2, 3, 4, 5, 6, 7})
	for _, err := range []error{errTx, errRx} {
		if err == nil {
			t.Fatal("5-byte cipher key accepted")
		}
		if strings.Contains(err.Error(), "\n") {
			t.Fatalf("error is not one line: %q", err)
		}
	}
}

// The keys are expanded once, on first use: the entity keeps working with
// the keys it started with whatever happens to the caller's slices later.
func TestPDCPKeysFixedAfterFirstUse(t *testing.T) {
	ck, ik := testKeys()
	tx := &PDCP{SNBits: pdu.PDCPSN12, Bearer: 1, Direction: crypto5g.Uplink, CipherKey: ck, IntegKey: ik}
	rx := &PDCP{SNBits: pdu.PDCPSN12, Bearer: 1, Direction: crypto5g.Uplink, CipherKey: bytes.Clone(ck), IntegKey: bytes.Clone(ik)}
	first, _ := tx.Protect([]byte("one"))
	first = bytes.Clone(first) // the next Protect reuses the entity's scratch
	clear(ck)
	clear(ik)
	second, _ := tx.Protect([]byte("two"))
	for i, prot := range [][]byte{first, second} {
		if _, err := rx.Unprotect(prot); err != nil {
			t.Fatalf("PDU %d: %v", i, err)
		}
	}
}

// Segments that arrive out of order, with the last first and a gap in the
// middle, stay buffered (pdu.ErrIncompleteSDU, whatever its wording) and
// complete the SDU when the missing one turns up.
func TestRLCMissingSegmentKeepsBuffering(t *testing.T) {
	tx, rx := NewRLC(), NewRLC()
	sdu := bytes.Repeat([]byte{7, 8, 9}, 100)
	pdus, err := tx.Segment(sdu, 64)
	if err != nil || len(pdus) < 4 {
		t.Fatalf("segments = %d: %v", len(pdus), err)
	}
	order := append([][]byte{pdus[len(pdus)-1]}, pdus[:len(pdus)-1]...)
	order[1], order[2] = order[2], order[1]
	for i, p := range order {
		out, err := rx.Receive(p)
		if err != nil {
			t.Fatalf("segment %d dropped: %v", i, err)
		}
		if (out != nil) != (i == len(order)-1) {
			t.Fatalf("segment %d: completed=%v", i, out != nil)
		}
		if out != nil && !bytes.Equal(out, sdu) {
			t.Fatal("reassembled SDU differs")
		}
	}
}

// FuzzPDCPUnprotect feeds arbitrary bytes to a PDCP receiver with ciphering
// and integrity on. It must never panic, and anything it accepts must be one
// of the SDUs the matching transmitter protected: the MAC-I covers the COUNT
// and the plaintext, so no mutation of a valid PDU may pass as new data.
func FuzzPDCPUnprotect(f *testing.F) {
	ck, ik := testKeys()
	newEntity := func() *PDCP {
		return &PDCP{SNBits: pdu.PDCPSN12, Bearer: 3, Direction: crypto5g.Downlink, CipherKey: ck, IntegKey: ik}
	}
	sdus := [][]byte{{}, []byte("x"), []byte("ping request: 32 bytes payload.."), bytes.Repeat([]byte{0xA5}, 100)}
	tx := newEntity()
	for _, sdu := range sdus {
		prot, err := tx.Protect(sdu)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(prot)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		got, err := newEntity().Unprotect(buf)
		if err != nil {
			return
		}
		for _, sdu := range sdus {
			if bytes.Equal(got, sdu) {
				return
			}
		}
		t.Fatalf("accepted %x as %x, which was never sent", buf, got)
	})
}
