package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"
)

// decodeWhole decodes buf as exactly one column.
func decodeWhole[C any](buf []byte, decode func(*Reader) C) (C, error) {
	r := NewReader(buf)
	c := decode(r)
	return c, r.Done()
}

// column is what every decoded column can do.
type column[T comparable] interface {
	Len() int
	At(i int) T
	DecodeAll(dst []T) []T
	AppendBinary(buf []byte) []byte
}

// sweepRows bounds the rows the fuzz contract reads: a column of up to
// sweepRows rows is read in full, a longer one (a constant column of 2^32
// rows fits in a few bytes) at its first and last sweepRows/2 rows.
const sweepRows = 1 << 14

// checkDecode is the decoder contract DecodePage set: hostile bytes — blob
// payloads reach the column decoders through segment hydration — are
// rejected with an error wrapping ErrCorrupt, without panicking or
// allocating beyond 128 bytes per input byte plus 1 MiB. A column that is
// accepted serves what it reports: Len() ≥ 0, At(i) for every i < Len()
// and DecodeAll, which agree; and it re-encodes to bytes that decode and
// re-encode to themselves.
func checkDecode[T comparable, C column[T]](t *testing.T, data []byte, decode func(*Reader) C) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := decodeWhole(data, decode)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(128*len(data)+1<<20) {
		t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
	}
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("rejection %v does not wrap ErrCorrupt", err)
		}
		return
	}
	n := c.Len()
	if n < 0 {
		t.Fatalf("accepted column has Len %d", n)
	}
	if n <= sweepRows {
		all := c.DecodeAll(nil)
		if len(all) != n {
			t.Fatalf("DecodeAll returned %d of %d rows", len(all), n)
		}
		for i, v := range all {
			if c.At(i) != v {
				t.Fatalf("At(%d) disagrees with DecodeAll", i)
			}
		}
	} else {
		for i := 0; i < sweepRows/2; i++ {
			c.At(i)
			c.At(n - 1 - i)
		}
	}
	enc := c.AppendBinary(nil)
	again, err := decodeWhole(enc, decode)
	if err != nil {
		t.Fatalf("re-decode of an accepted column: %v", err)
	}
	if !bytes.Equal(again.AppendBinary(nil), enc) {
		t.Fatal("unstable round trip")
	}
}

// header builds a column header: the kind byte and uvarints.
func header(k Kind, vs ...uint64) []byte {
	b := []byte{byte(k)}
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func FuzzDecodeIntColumn(f *testing.F) {
	for _, vals := range [][]int64{{}, {7}, {1, 1, 1, 2, 2, 3}, {5, -3, 1 << 40, 5}} {
		f.Add(NewRLE(vals).AppendBinary(nil))
		f.Add(NewBitPack(vals).AppendBinary(nil))
		f.Add(NewPlainInt(vals).AppendBinary(nil))
	}
	f.Add(header(KindRLE, 1, 1<<24))     // 2^24 runs in six bytes
	f.Add(header(KindRLE, 1, 1<<40))     // 2^40 runs
	f.Add(header(KindRLE, 1<<33, 1))     // rows past a uint32 run end
	f.Add(header(KindRLE, 3, 0))         // three rows in no runs
	f.Add(header(KindPlainInt, 1<<61))   // 2^61 values
	f.Add(header(KindBitPack, 1<<62, 0)) // width byte missing
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode[int64](t, data, DecodeIntColumn)
	})
}

func FuzzDecodeStringColumn(f *testing.F) {
	for _, vals := range [][]string{{}, {"a"}, {"x", "y", "x", "x"}, {"", strings.Repeat("long", 64), "z"}} {
		f.Add(NewDict(vals).AppendBinary(nil))
		f.Add(NewPlainString(vals).AppendBinary(nil))
		f.Add(NewLZString(vals).AppendBinary(nil))
	}
	f.Add(header(KindDict, 1<<24))    // 2^24 entries in five bytes
	f.Add(header(KindDict, 1, 1<<63)) // an entry 2^63 bytes long
	for _, c := range unservableColumns() {
		f.Add(c.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode[string](t, data, DecodeStringColumn)
	})
}
