package corenet

import (
	"bytes"
	"testing"
)

func TestULPath(t *testing.T) {
	upf := NewUPF(0x1234)
	gnb := &GNBTunnel{TEID: 0x1234}
	ip := []byte("icmp echo request")
	enc, err := gnb.EncapUL(ip)
	if err != nil {
		t.Fatal(err)
	}
	got, err := upf.DecapUL(enc)
	if err != nil || !bytes.Equal(got, ip) {
		t.Fatalf("UL path: %v", err)
	}
}

func TestTEIDMismatchRejected(t *testing.T) {
	upf := NewUPF(1)
	gnb := &GNBTunnel{TEID: 2}
	enc, _ := gnb.EncapUL([]byte("x"))
	if _, err := upf.DecapUL(enc); err == nil {
		t.Fatal("TEID mismatch accepted at UPF")
	}
}

func TestMalformedTunnelPacket(t *testing.T) {
	upf := NewUPF(1)
	if _, err := upf.DecapUL([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage accepted")
	}
}

// A steady-state UL tunnel round trip allocates nothing: the gNB endpoint
// reuses its own buffer and the UPF's payload aliases it.
func TestTunnelPairZeroAllocs(t *testing.T) {
	upf := NewUPF(0x42)
	gnb := &GNBTunnel{TEID: 0x42}
	ip := bytes.Repeat([]byte{0x5A}, 32)
	check := func() {
		enc, err := gnb.EncapUL(ip)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := upf.DecapUL(enc); err != nil || !bytes.Equal(got, ip) {
			t.Fatalf("ul: round trip gave %x, %v", got, err)
		}
	}
	check()
	if n := testing.AllocsPerRun(200, check); n != 0 {
		t.Errorf("ul encap+decap: %v allocs, want 0", n)
	}
}
