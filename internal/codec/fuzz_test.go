package codec

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
)

// appender is what every decoded column can do: serialize itself again.
type appender interface{ AppendBinary(buf []byte) []byte }

// checkDecode is the decoder contract DecodePage set: hostile bytes — blob
// payloads reach the column decoders through segment hydration — are
// rejected without panicking or allocating beyond 128 bytes per input byte
// plus 1 MiB, and a column that is accepted re-encodes to bytes that decode
// and re-encode to themselves.
func checkDecode[C appender](t *testing.T, data []byte, decode func([]byte) (C, int, error)) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, n, err := decode(data)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(128*len(data)+1<<20) {
		t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
	}
	if err != nil {
		return
	}
	if n > len(data) {
		t.Fatalf("decoder consumed %d of %d bytes", n, len(data))
	}
	enc := c.AppendBinary(nil)
	again, m, err := decode(enc)
	if err != nil || m != len(enc) {
		t.Fatalf("re-decode of an accepted column: consumed %d of %d bytes, err %v", m, len(enc), err)
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
	f.Add(header(KindPlainInt, 1<<61))   // 2^61 values
	f.Add(header(KindBitPack, 1<<62, 0)) // width byte missing
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data, DecodeIntColumn)
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
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data, DecodeStringColumn)
	})
}
