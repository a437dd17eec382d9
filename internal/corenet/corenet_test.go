package corenet

import (
	"bytes"
	"testing"

	"urllcsim/internal/sim"
)

func TestULPath(t *testing.T) {
	upf := NewUPF(0x1234, 20*sim.Microsecond)
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
	ul, dl := upf.Counters()
	if ul != 1 || dl != 0 {
		t.Fatalf("counters = %d/%d", ul, dl)
	}
}

func TestDLPath(t *testing.T) {
	upf := NewUPF(0x1234, 0)
	gnb := &GNBTunnel{TEID: 0x1234}
	ip := []byte("icmp echo reply")
	enc, err := upf.EncapDL(ip)
	if err != nil {
		t.Fatal(err)
	}
	got, err := gnb.DecapDL(enc)
	if err != nil || !bytes.Equal(got, ip) {
		t.Fatalf("DL path: %v", err)
	}
}

func TestTEIDMismatchRejected(t *testing.T) {
	upf := NewUPF(1, 0)
	gnb := &GNBTunnel{TEID: 2}
	enc, _ := gnb.EncapUL([]byte("x"))
	if _, err := upf.DecapUL(enc); err == nil {
		t.Fatal("TEID mismatch accepted at UPF")
	}
	enc2, _ := upf.EncapDL([]byte("y"))
	if _, err := gnb.DecapDL(enc2); err == nil {
		t.Fatal("TEID mismatch accepted at gNB")
	}
}

func TestMalformedTunnelPacket(t *testing.T) {
	upf := NewUPF(1, 0)
	if _, err := upf.DecapUL([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage accepted")
	}
}

// A steady-state tunnel round trip allocates nothing in either direction:
// each encapsulating endpoint reuses its own buffer.
func TestTunnelPairZeroAllocs(t *testing.T) {
	upf := NewUPF(0x42, 0)
	gnb := &GNBTunnel{TEID: 0x42}
	ip := bytes.Repeat([]byte{0x5A}, 32)
	for name, pair := range map[string]func() ([]byte, error){
		"ul": func() ([]byte, error) {
			enc, err := gnb.EncapUL(ip)
			if err != nil {
				return nil, err
			}
			return upf.DecapUL(enc)
		},
		"dl": func() ([]byte, error) {
			enc, err := upf.EncapDL(ip)
			if err != nil {
				return nil, err
			}
			return gnb.DecapDL(enc)
		},
	} {
		check := func() {
			if got, err := pair(); err != nil || !bytes.Equal(got, ip) {
				t.Fatalf("%s: round trip gave %x, %v", name, got, err)
			}
		}
		check()
		if n := testing.AllocsPerRun(200, check); n != 0 {
			t.Errorf("%s encap+decap: %v allocs, want 0", name, n)
		}
	}
}
