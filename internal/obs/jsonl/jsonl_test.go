package jsonl

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// stepNames are the journey step names the node layer records; most carry
// multi-byte UTF-8 (circled digits, arrows, the ellipsis) that must pass
// through unescaped.
var stepNames = []string{
	"① UE APP↓", "② wait for UL slot + SR", "③ gNB PHY", "③ gNB SR decode",
	"④⑤ UL grant (wait+ctrl)", "⑥ UE grant decode", "⑥ UL data on air",
	"⑥ wait for granted UL slot", "⑦ RH→gNB samples", "⑦ gNB PHY↑…SDAP↑",
	"⑧ gNB SDAP↓", "⑨ RLC queue (SCHE wait)", "⑩ DL data on air",
	"⑪ UE PHY↑…APP↑", "HARQ retransmission", "UE MAC+PHY prep",
	"UPF→gNB (GTP-U)", "gNB→UPF (GTP-U)", "gNB MAC+PHY", "gNB→RH submit",
	"radio miss → requeue", "wait for planned DL slot",
}

// FuzzAppendString: AppendString writes exactly json.Marshal's bytes for any
// string, valid UTF-8 or not.
func FuzzAppendString(f *testing.F) {
	for _, s := range append([]string{
		"", "<>&", "a<b>c&d", "\x00", "\x01\x1f\x7f", "\"\\/", "\b\f\n\r\t",
		"\u2028", "x\u2029y", "\xff", "\xc3", "ok\xe2\x82", "\xed\xa0\x80",
		"\ufffd", "\U0001F600", "é", "…",
	}, stepNames...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("AppendString(%q) = %s, json.Marshal = %s", s, got, want)
		}
	})
}

// FuzzAppendFloat: AppendFloat writes exactly json.Marshal's bytes for every
// finite float64, and errors (appending nothing) where json.Marshal errors.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 1e-7, 9.99e-7, -1e-7,
		1e20, 1e21, 1.5e21, -1e21, 123456789.125, 1.0 / 3,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 4e-320,
		math.MaxFloat64, -math.MaxFloat64, 0.6666666666666666,
		15577.328000000001, math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		want, jerr := json.Marshal(v)
		got, err := AppendFloat([]byte("x"), v)
		if jerr != nil {
			if err == nil || string(got) != "x" {
				t.Fatalf("AppendFloat(%v) = %q, %v; json.Marshal errs (%v)", v, got, err, jerr)
			}
			return
		}
		if err != nil || !bytes.Equal(got[1:], want) {
			t.Fatalf("AppendFloat(%v) = %s, %v; json.Marshal = %s", v, got[1:], err, want)
		}
	})
}

// TestAppendMicrosExact: AppendMicros prints what encoding/json prints for
// float64(ns)/1000 — on edge values, at and around the exact-range bound,
// and on deterministic random values across the whole range.
func TestAppendMicrosExact(t *testing.T) {
	check := func(ns int64) {
		t.Helper()
		want := strconv.AppendFloat(nil, float64(ns)/1000, 'f', -1, 64)
		if got := AppendMicros(nil, ns); !bytes.Equal(got, want) {
			t.Fatalf("AppendMicros(%d) = %s, want %s", ns, got, want)
		}
	}
	edges := []int64{0, 1, 9, 10, 99, 100, 999, 1000, 1001, 1010, 1100, 123456789,
		MaxExactNs - 1, MaxExactNs, MaxExactNs + 1, 1 << 52, 1<<53 + 1, math.MaxInt64}
	for _, ns := range edges {
		check(ns)
		check(-ns)
	}
	check(math.MinInt64)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		var ns int64
		switch i % 4 {
		case 0: // simulation-sized times
			ns = r.Int63n(10 * 1e9)
		case 1: // anywhere in the exact range
			ns = r.Int63n(MaxExactNs)
		case 2: // just inside the bound, where float64 spacing is coarsest
			ns = MaxExactNs - 1 - r.Int63n(1<<40)
		default: // outside it: the float fallback
			ns = MaxExactNs + r.Int63n(math.MaxInt64-MaxExactNs)
		}
		if i%8 >= 4 {
			ns = -ns
		}
		check(ns)
	}
}

// TestNanosFromMicrosExact: every value AppendMicros prints inside the exact
// range parses back to its nanosecond count, and the range ends exactly at
// MaxExactNs.
func TestNanosFromMicrosExact(t *testing.T) {
	roundTrip := func(ns int64) {
		t.Helper()
		us, err := strconv.ParseFloat(string(AppendMicros(nil, ns)), 64)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := NanosFromMicros("t_us", us); err != nil || got != ns {
			t.Fatalf("NanosFromMicros(%v) = %d, %v; want %d", us, got, err, ns)
		}
	}
	for _, ns := range []int64{0, 1, 999, 1000, 142857, 1<<50 + 7, MaxExactNs - 1} {
		roundTrip(ns)
		roundTrip(-ns)
	}
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 200000; i++ {
		ns := r.Int63n(MaxExactNs)
		if i%2 == 1 {
			ns = MaxExactNs - 1 - r.Int63n(1<<40)
		}
		roundTrip(ns)
		roundTrip(-ns)
	}
	for _, us := range []float64{MaxExactNs / 1000, -MaxExactNs / 1000, 1e300, -1e300, math.MaxInt64} {
		if ns, err := NanosFromMicros("t_us", us); err == nil || !strings.HasPrefix(err.Error(), "t_us ") {
			t.Fatalf("NanosFromMicros(%v) = %d, %v; want an out-of-range error naming the field", us, ns, err)
		}
	}
}

// TestRead pins the reading envelope every dialect's reader shares: blank
// lines count toward line numbers but are skipped, foreign kinds are
// skipped before any schema check, owned kinds with a schema reject any
// other (or none), and every error is one line under the caller's prefix.
func TestRead(t *testing.T) {
	var got []string
	kinds := map[string]Kind{
		"x_meta": {Schema: "urllcsim-x/v1", Decode: func(line []byte) error { got = append(got, string(line)); return nil }},
		"x": {Decode: func(line []byte) error {
			if bytes.Contains(line, []byte("bad")) {
				return errors.New("bad x")
			}
			got = append(got, string(line))
			return nil
		}},
	}
	ok := `{"kind":"x_meta","schema":"urllcsim-x/v1"}` + "\n\n" + `{"kind":"y","schema":"urllcsim-y/v9"}` + "\n" + `{"kind":"x"}`
	if err := Read(strings.NewReader(ok), "x", kinds); err != nil || len(got) != 2 {
		t.Fatalf("Read = %v, decoded %q", err, got)
	}
	for _, c := range []struct{ in, want string }{
		{"\n\n" + `{"kind":"x","v":"bad"}`, "x: line 3: bad x"},
		{`{"kind":"x_meta","schema":"urllcsim-x/v2"}`, `x: line 1: unsupported x schema "urllcsim-x/v2" (this reader speaks "urllcsim-x/v1")`},
		{`{"kind":"x_meta"}`, `x: line 1: unsupported x schema "" (this reader speaks "urllcsim-x/v1")`},
		{"\n" + `{"kind":"x",`, "x: line 2: unexpected end of JSON input"},
		{`{"kind":"x"}` + "\n" + strings.Repeat(" ", 16<<20+1), "x: bufio.Scanner: token too long"},
	} {
		if err := Read(strings.NewReader(c.in), "x", kinds); err == nil || err.Error() != c.want {
			t.Errorf("Read(%.40q) = %v, want %q", c.in, err, c.want)
		}
	}
}
