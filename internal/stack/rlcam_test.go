package stack

import (
	"bytes"
	"fmt"
	"testing"

	"urllcsim/internal/pdu"
	"urllcsim/internal/sim"
)

func TestAMPDURoundTrip(t *testing.T) {
	p := pdu.RLCAMPDU{Poll: true, SI: pdu.SIFull, SN: 4095, Payload: []byte("am data")}
	enc, err := p.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pdu.DecodeRLCAM(enc)
	if err != nil || !got.Poll || got.SN != 4095 || !bytes.Equal(got.Payload, []byte("am data")) {
		t.Fatalf("AM round trip: %+v %v", got, err)
	}
	// Segment variants carry SO.
	seg := pdu.RLCAMPDU{SI: pdu.SIMiddle, SN: 7, SO: 512, Payload: []byte("x")}
	enc, err = seg.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err = pdu.DecodeRLCAM(enc)
	if err != nil || got.SO != 512 {
		t.Fatalf("AM segment: %+v %v", got, err)
	}
}

func TestAMPDUErrors(t *testing.T) {
	if _, err := (pdu.RLCAMPDU{SN: 1 << 12, SI: pdu.SIFull, Payload: []byte{1}}).Append(nil); err == nil {
		t.Fatal("13-bit SN accepted")
	}
	if _, err := (pdu.RLCAMPDU{SI: pdu.SIFull}).Append(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, err := pdu.DecodeRLCAM([]byte{0x80}); err == nil {
		t.Fatal("short PDU accepted")
	}
	st, _ := pdu.RLCStatus{AckSN: 5}.Append(nil)
	if _, err := pdu.DecodeRLCAM(st); err == nil {
		t.Fatal("STATUS accepted as AMD")
	}
}

func TestStatusPDURoundTrip(t *testing.T) {
	st := pdu.RLCStatus{AckSN: 100, NackSNs: []uint16{7, 42, 99}}
	enc, err := st.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !pdu.IsStatusPDU(enc) {
		t.Fatal("status not recognised")
	}
	got, err := pdu.DecodeRLCStatus(enc)
	if err != nil || got.AckSN != 100 || len(got.NackSNs) != 3 || got.NackSNs[1] != 42 {
		t.Fatalf("status round trip: %+v %v", got, err)
	}
	// Empty NACK list.
	st2 := pdu.RLCStatus{AckSN: 1}
	enc2, _ := st2.Append(nil)
	got2, err := pdu.DecodeRLCStatus(enc2)
	if err != nil || got2.AckSN != 1 || len(got2.NackSNs) != 0 {
		t.Fatalf("empty status: %+v %v", got2, err)
	}
	if _, err := pdu.DecodeRLCStatus([]byte{0x80, 0}); err == nil {
		t.Fatal("data PDU accepted as status")
	}
}

// lossyLink delivers PDUs between two AM entities, dropping the data PDUs
// whose index is in drop (status PDUs always get through).
func amExchange(t *testing.T, tx, rx *RLCAM, pdus [][]byte, drop map[int]bool) (delivered [][]byte) {
	t.Helper()
	now := sim.Time(0)
	var backlog [][]byte // PDUs in flight toward rx
	for i, p := range pdus {
		if drop[i] {
			continue
		}
		backlog = append(backlog, p)
	}
	for rounds := 0; rounds < 20 && len(backlog) > 0; rounds++ {
		now = now.Add(sim.Millisecond) // each exchange round advances time
		var nextBacklog [][]byte
		for _, p := range backlog {
			got, status, _, err := rx.Receive(p, now)
			if err != nil {
				t.Fatal(err)
			}
			delivered = append(delivered, got...)
			if status != nil {
				_, _, retx, err := tx.Receive(status, now)
				if err != nil {
					t.Fatal(err)
				}
				nextBacklog = append(nextBacklog, retx...)
			}
		}
		backlog = nextBacklog
	}
	return delivered
}

func TestAMInOrderDeliveryNoLoss(t *testing.T) {
	tx := NewRLCAM(4, 2)
	rx := NewRLCAM(4, 2)
	var pdus [][]byte
	var want [][]byte
	for i := 0; i < 10; i++ {
		sdu := []byte(fmt.Sprintf("sdu-%02d", i))
		want = append(want, sdu)
		p, err := tx.Send(sdu, 0)
		if err != nil {
			t.Fatal(err)
		}
		pdus = append(pdus, p)
	}
	got := amExchange(t, tx, rx, pdus, nil)
	if len(got) != 10 {
		t.Fatalf("delivered %d/10", len(got))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("out of order at %d: %q", i, got[i])
		}
	}
	if tx.Unacked() != 0 {
		t.Fatalf("%d SDUs still unacked after full exchange", tx.Unacked())
	}
}

func TestAMRecoversFromLoss(t *testing.T) {
	tx := NewRLCAM(4, 1) // poll every PDU: prompt status
	rx := NewRLCAM(4, 1)
	var pdus [][]byte
	for i := 0; i < 8; i++ {
		p, err := tx.Send([]byte{byte(i)}, 0)
		if err != nil {
			t.Fatal(err)
		}
		pdus = append(pdus, p)
	}
	// Drop PDUs 2 and 5 on first transmission.
	got := amExchange(t, tx, rx, pdus, map[int]bool{2: true, 5: true})
	if len(got) != 8 {
		t.Fatalf("delivered %d/8 after retransmission", len(got))
	}
	for i, sdu := range got {
		if sdu[0] != byte(i) {
			t.Fatalf("delivery order broken at %d", i)
		}
	}
	if len(tx.Failed()) != 0 {
		t.Fatalf("spurious failures: %v", tx.Failed())
	}
}

func TestAMMaxRetxExhaustion(t *testing.T) {
	tx := NewRLCAM(2, 1)
	rx := NewRLCAM(2, 1)
	p0, _ := tx.Send([]byte{0}, 0)
	p1, _ := tx.Send([]byte{1}, 0)
	_ = p0 // never delivered: simulate permanent loss of SN 0
	// Deliver p1 repeatedly; every poll generates a status NACKing SN 0;
	// tx retransmits; we drop every retransmission.
	cur := p1
	for round := 0; round < 6; round++ {
		now := sim.Time(int64(round+1) * int64(sim.Millisecond))
		_, status, _, err := rx.Receive(cur, now)
		if err != nil {
			t.Fatal(err)
		}
		if status == nil {
			t.Fatal("no status despite poll")
		}
		_, _, retx, err := tx.Receive(status, now)
		if err != nil {
			t.Fatal(err)
		}
		if len(retx) == 0 {
			break // budget exhausted
		}
		// Drop the retransmission of SN 0; re-deliver p1 to trigger the
		// next poll round.
		cur = p1
	}
	if len(tx.Failed()) != 1 || tx.Failed()[0] != 0 {
		t.Fatalf("failure declaration wrong: %v", tx.Failed())
	}
}

func TestAMDuplicateDeliveredOnce(t *testing.T) {
	tx := NewRLCAM(4, 10)
	rx := NewRLCAM(4, 10)
	p, _ := tx.Send([]byte("once"), 0)
	got1, _, _, err := rx.Receive(p, 0)
	if err != nil || len(got1) != 1 {
		t.Fatalf("first delivery: %v %v", got1, err)
	}
	got2, _, _, err := rx.Receive(p, 0)
	if err != nil || len(got2) != 0 {
		t.Fatalf("duplicate delivered again: %v", got2)
	}
}

func TestAMHoldsOutOfOrderUntilGapFilled(t *testing.T) {
	tx := NewRLCAM(4, 100)
	rx := NewRLCAM(4, 100)
	p0, _ := tx.Send([]byte{0}, 0)
	p1, _ := tx.Send([]byte{1}, 0)
	p2, _ := tx.Send([]byte{2}, 0)
	got, _, _, _ := rx.Receive(p2, 0)
	if len(got) != 0 {
		t.Fatal("SN 2 delivered before 0 and 1")
	}
	got, _, _, _ = rx.Receive(p0, 0)
	if len(got) != 1 || got[0][0] != 0 {
		t.Fatalf("SN 0 delivery: %v", got)
	}
	got, _, _, _ = rx.Receive(p1, 0)
	if len(got) != 2 || got[0][0] != 1 || got[1][0] != 2 {
		t.Fatalf("gap fill must release 1 and 2: %v", got)
	}
}

func TestAMSendEmpty(t *testing.T) {
	tx := NewRLCAM(1, 1)
	if _, err := tx.Send(nil, 0); err == nil {
		t.Fatal("empty SDU accepted")
	}
}
