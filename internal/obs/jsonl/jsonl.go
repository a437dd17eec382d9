// Package jsonl owns the simulator's JSONL envelope, both halves. The write
// half is the byte-appending encoders behind the high-volume exports (the
// urllcsim-trace, -slots and -kpi dialects): each appender writes exactly
// the bytes encoding/json writes for the same Go value, without reflection,
// interface boxing or a per-record allocation, so a writer can assemble a
// whole line into one reused buffer. The read half is Read, the one scanner
// every dialect's reader decodes through. The package imports nothing from
// obs, so obs, analyze, flight and prof all build on it.
package jsonl

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// MaxExactNs bounds the nanosecond counts whose µs form is exact in both
// directions. Below it µs = ns/1000 stays under 2^42, where float64 spacing
// (≤ 2^-11 µs) is finer than the 0.001 µs decimal grid: AppendMicros's
// decimal is the shortest one that round-trips float64(ns)/1000, and
// Round(us·1000) recovers ns (NanosFromMicros). About 50.9 days of virtual
// time.
const MaxExactNs = 1000 << 42

// AppendMicros appends ns/1000 as encoding/json prints float64(ns)/1000:
// integer digits plus up to three fractional digits, trailing zeros trimmed.
// Inside the exact range it is pure integer arithmetic; outside it falls
// back to the float path, which prints the same bytes encoding/json would.
func AppendMicros(b []byte, ns int64) []byte {
	if ns <= -MaxExactNs || ns >= MaxExactNs {
		b, _ = AppendFloat(b, float64(ns)/1000) // finite, so never an error
		return b
	}
	if ns < 0 {
		b = append(b, '-')
		ns = -ns
	}
	b = strconv.AppendInt(b, ns/1000, 10)
	frac := ns % 1000
	if frac == 0 {
		return b
	}
	digits := [3]byte{byte('0' + frac/100), byte('0' + frac/10%10), byte('0' + frac%10)}
	n := len(digits)
	for digits[n-1] == '0' {
		n--
	}
	b = append(b, '.')
	return append(b, digits[:n]...)
}

// NanosFromMicros inverts AppendMicros: it rounds the wire µs value of the
// named field to integer nanoseconds, exactly for every value the writer
// prints inside the exact range. A result outside that range is an error:
// there the decimal no longer names one nanosecond count, and past int64 the
// conversion would be silent garbage.
func NanosFromMicros(field string, us float64) (int64, error) {
	r := math.Round(us * 1000)
	if !(math.Abs(r) < MaxExactNs) {
		return 0, fmt.Errorf("%s %g outside the exact range (|µs| < %d)", field, us, MaxExactNs/1000)
	}
	return int64(r), nil
}

// AppendFloat appends f as encoding/json encodes a float64: the shortest
// round-tripping decimal, in 'e' form below 1e-6 and from 1e21 on (with the
// exponent's leading zero dropped, e-07 → e-7), in 'f' form otherwise. NaN
// and ±Inf have no JSON form and are an error, as in encoding/json.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, fmt.Errorf("jsonl: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// AppendInt appends v in decimal.
func AppendInt(b []byte, v int) []byte { return strconv.AppendInt(b, int64(v), 10) }

// htmlSafe[c] reports whether ASCII byte c is copied through unescaped:
// printable, and none of the quote, the backslash or the HTML-sensitive <>&.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// AppendString appends s as a quoted JSON string with encoding/json's
// escaping: \" \\ \b \f \n \r \t, \u00XX for the other control characters
// and for <, > and &, \ufffd for each byte of invalid UTF-8, and \u2028
// and \u2029 for the line and paragraph separators. Valid multi-byte UTF-8 is
// copied through unchanged.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
