package codec

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
)

// TestReaderStickyError: the first failure is kept with its byte offset
// and wraps ErrCorrupt, and every later read returns a zero value.
func TestReaderStickyError(t *testing.T) {
	buf := binary.AppendUvarint([]byte{7}, 300)
	buf = append(buf, 0xff) // a uvarint cut short
	r := NewReader(buf)
	if r.Byte() != 7 || r.Uvarint() != 300 {
		t.Fatal("valid prefix misread")
	}
	if v := r.Uvarint(); v != 0 || !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("truncated uvarint: %d, %v", v, r.Err())
	}
	if !strings.Contains(r.Err().Error(), "at byte 3") {
		t.Fatalf("error %q does not name the offset", r.Err())
	}
	first := r.Err()
	if r.Byte() != 0 || r.Varint() != 0 || r.U64() != 0 || r.Bytes(1) != nil || r.Count(1) != 0 || r.Bool() {
		t.Fatal("read after the first error returned a value")
	}
	if r.Done() != first {
		t.Fatal("the first error was not kept")
	}
}

// TestReaderBounds: counts, lengths and word runs the bytes left cannot
// hold are rejected before anything is allocated, including lengths that
// would overflow pos+n; trailing bytes, another object kind and an unknown
// version are errors too.
func TestReaderBounds(t *testing.T) {
	for name, read := range map[string]func(r *Reader){
		"count":        func(r *Reader) { r.Count(2) },
		"bytes 2^64":   func(r *Reader) { r.Bytes(math.MaxUint64) },
		"field 2^63":   func(r *Reader) { r.Field() },
		"words":        func(r *Reader) { r.U64s(r.Uvarint()) },
		"flag byte":    func(r *Reader) { r.Bool() },
		"past the end": func(r *Reader) { r.Uvarint(); r.Byte() },
		"trailing":     func(r *Reader) {},
		"object kind":  func(r *Reader) { r.Header(ObjSegment) },
	} {
		r := NewReader(binary.AppendUvarint(nil, 1<<63))
		read(r)
		if err := r.Done(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err %v, want ErrCorrupt", name, err)
		}
	}
	r := NewReader(AppendHeader(nil, ObjLogChunk, 9))
	if v := r.Header(ObjLogChunk); v != 9 {
		t.Fatalf("Header returned version %d, want 9", v)
	}
	r.Unsupported(9)
	if err := r.Done(); !errors.Is(err, ErrVersion) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown version: err %v, want ErrVersion only", err)
	}
}
