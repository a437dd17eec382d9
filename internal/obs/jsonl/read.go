package jsonl

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Kind is how a reader takes one record kind it owns.
type Kind struct {
	// Schema, when set, is the one schema a line of this kind may carry;
	// any other value, an absent one included, is an error before Decode
	// runs, so version skew never reads as a zero-filled record.
	Schema string
	// Decode parses one line of this kind.
	Decode func(line []byte) error
}

// Read scans r one JSON object per line and hands each line whose kind is
// in kinds to that kind's Decode. Blank lines and kinds the caller does not
// own are skipped, so one mixed file feeds every dialect's reader. Every
// error is one line: "<prefix>: line N: <cause>" for a malformed line, a
// wrong schema or a Decode error, "<prefix>: <cause>" when the stream itself
// fails (a read error or a line over 16 MiB).
func Read(r io.Reader, prefix string, kinds map[string]Kind) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for n := 1; sc.Scan(); n++ {
		if line := sc.Bytes(); len(line) > 0 {
			if err := readLine(line, kinds); err != nil {
				return fmt.Errorf("%s: line %d: %w", prefix, n, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%s: %w", prefix, err)
	}
	return nil
}

func readLine(line []byte, kinds map[string]Kind) error {
	// Peek at the kind before the owner decodes: dialects reuse field names
	// with different types, so decoding a foreign line into the owner's
	// struct would fail instead of skipping it.
	var head struct {
		Kind   string `json:"kind"`
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(line, &head); err != nil {
		return err
	}
	k, ok := kinds[head.Kind]
	if !ok {
		return nil
	}
	if k.Schema != "" && head.Schema != k.Schema {
		return fmt.Errorf("unsupported %s schema %q (this reader speaks %q)", dialect(k.Schema), head.Schema, k.Schema)
	}
	return k.Decode(line)
}

// dialect names a schema's dialect for errors: "urllcsim-slots/v1" → "slots".
func dialect(schema string) string {
	name, _, _ := strings.Cut(schema, "/")
	return name[strings.LastIndexByte(name, '-')+1:]
}
