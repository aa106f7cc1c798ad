package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"s2db/internal/codec"
)

func wirePage(first uint64, payloads ...string) Page {
	recs := make([]Record, len(payloads))
	for i, s := range payloads {
		var data []byte
		if s != "" { // decode canonicalizes empty payloads to nil
			data = []byte(s)
		}
		recs[i] = Record{
			LSN:      first + uint64(i),
			Kind:     Kind(1 + i%int(KindCommit)),
			CommitTS: uint64(100 + i),
			Wall:     int64(1e9) + int64(i),
			Data:     data,
		}
	}
	return Page{FirstLSN: first, EndLSN: first + uint64(len(recs)), Bytes: recsBytes(recs), Records: recs}
}

func TestPageWireRoundTrip(t *testing.T) {
	pages := []Page{
		wirePage(0, "a"),
		wirePage(7, "", "payload", string(bytes.Repeat([]byte{0xff, 0x00}, 500))),
		wirePage(1<<40, "x", "y"),
	}
	for _, pg := range pages {
		got, err := DecodePage(EncodePage(pg))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, pg) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, pg)
		}
	}
}

func TestDecodePageRejectsTruncation(t *testing.T) {
	frame := EncodePage(wirePage(3, "hello", "world"))
	for n := 0; n < len(frame); n++ {
		if _, err := DecodePage(frame[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

func TestDecodePageRejectsCorruption(t *testing.T) {
	base := EncodePage(wirePage(3, "hello", "world"))
	cases := []struct {
		name string
		mut  func([]byte)
	}{
		{"magic", func(b []byte) { b[0] = 'X' }},
		{"version", func(b []byte) { b[4] = PageWireVersion + 1 }},
		{"flags", func(b []byte) { b[5] = 0x80 }},
		{"first-lsn", func(b []byte) { b[13]++ }},
		{"end-lsn", func(b []byte) { b[21]++ }},
		{"empty-span", func(b []byte) {
			binary.BigEndian.PutUint64(b[14:22], binary.BigEndian.Uint64(b[6:14]))
		}},
		{"crc", func(b []byte) { b[22] ^= 0xff }},
		{"length", func(b []byte) { binary.BigEndian.PutUint32(b[26:30], 1) }},
		{"oversized-length", func(b []byte) { binary.BigEndian.PutUint32(b[26:30], MaxWirePageBytes+1) }},
		{"body", func(b []byte) { b[len(b)-1] ^= 0x01 }},
	}
	for _, tc := range cases {
		frame := append([]byte(nil), base...)
		tc.mut(frame)
		if _, err := DecodePage(frame); err == nil {
			t.Fatalf("%s corruption accepted", tc.name)
		}
	}
	// Appending trailing bytes must also fail: the length field no longer
	// matches the frame.
	if _, err := DecodePage(append(append([]byte(nil), base...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestDecodeRecordsRejectsHostileCounts(t *testing.T) {
	// A chunk claiming 2^40 records in a few bytes must be rejected before
	// the decoder sizes any allocation from the count.
	buf := codec.AppendHeader(nil, codec.ObjLogChunk, chunkVersion)
	buf = binary.AppendUvarint(buf, 1<<40)
	if _, err := DecodeRecords(buf); err == nil {
		t.Fatal("hostile record count accepted")
	}
	// Same for a record whose data length runs past the chunk.
	one := EncodeRecords([]Record{{LSN: 1, Kind: KindInsert, Data: []byte("abc")}})
	if _, err := DecodeRecords(one[:len(one)-1]); err == nil {
		t.Fatal("truncated record data accepted")
	}
	// Trailing garbage after the declared records is corruption, not slack.
	if _, err := DecodeRecords(append(append([]byte(nil), one...), 0xee)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// A chunk of a version this build does not read is a typed error.
	one[1] = chunkVersion + 1
	if _, err := DecodeRecords(one); !errors.Is(err, codec.ErrVersion) {
		t.Fatalf("unknown chunk version: err %v, want ErrVersion", err)
	}
}

// FuzzDecodePage asserts DecodePage never panics, never over-allocates
// from hostile length fields, and that anything it accepts re-encodes and
// re-decodes to the same page (a stable round trip).
func FuzzDecodePage(f *testing.F) {
	f.Add(EncodePage(wirePage(0, "a")))
	f.Add(EncodePage(wirePage(9, "hello", "", "world")))
	f.Add(EncodePage(wirePage(1<<33, string(bytes.Repeat([]byte("z"), 2000)))))
	trunc := EncodePage(wirePage(2, "abc"))
	f.Add(trunc[:len(trunc)-2])
	f.Add([]byte("S2PG"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		pg, err := DecodePage(data)
		if err != nil {
			return
		}
		again, err := DecodePage(EncodePage(pg))
		if err != nil {
			t.Fatalf("re-decode of accepted page failed: %v", err)
		}
		if !reflect.DeepEqual(again, pg) {
			t.Fatalf("unstable round trip:\n got %+v\nwant %+v", again, pg)
		}
	})
}

// FuzzDecodeRecords holds DecodeRecords to the decoder contract on log
// chunk bytes, which come back from blob storage: hostile bytes are
// rejected with codec.ErrCorrupt or codec.ErrVersion, without panicking
// or allocating beyond 128 bytes per input byte plus 1 MiB, and an
// accepted chunk re-encodes to bytes that decode and re-encode to
// themselves.
func FuzzDecodeRecords(f *testing.F) {
	f.Add(EncodeRecords(wirePage(0, "a").Records))
	f.Add(EncodeRecords(wirePage(9, "hello", "", "world").Records))
	f.Add(EncodeRecords(nil))
	f.Add(binary.AppendUvarint(codec.AppendHeader(nil, codec.ObjLogChunk, chunkVersion), 1<<40))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recs, err := DecodeRecords(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(128*len(data)+1<<20) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			if !errors.Is(err, codec.ErrCorrupt) && !errors.Is(err, codec.ErrVersion) {
				t.Fatalf("rejection %v wraps neither ErrCorrupt nor ErrVersion", err)
			}
			return
		}
		enc := EncodeRecords(recs)
		again, err := DecodeRecords(enc)
		if err != nil {
			t.Fatalf("re-decode of an accepted chunk: %v", err)
		}
		if !bytes.Equal(EncodeRecords(again), enc) {
			t.Fatal("unstable round trip")
		}
	})
}
