package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"runtime"
	"strings"
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
			Kind:     Kind(1 + i%int(KindMerge)),
			CommitTS: uint64(100 + i),
			Wall:     int64(1e9) + int64(i),
			Data:     data,
		}
	}
	return Page{FirstLSN: first, EndLSN: first + uint64(len(recs)), Bytes: recsBytes(recs), Records: recs}
}

func withUploaded(pg Page, uploaded uint64) Page {
	pg.Uploaded = uploaded
	return pg
}

func TestPageWireRoundTrip(t *testing.T) {
	pages := []Page{
		wirePage(0, "a"),
		wirePage(7, "", "payload", string(bytes.Repeat([]byte{0xff, 0x00}, 500))),
		wirePage(1<<40, "x", "y"),
		withUploaded(wirePage(12, "z"), 1<<41), // a watermark past the page: a lagging link's backlog
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

// TestEncodePageExactSize: a frame is allocated once at its final size,
// over varint widths from one byte to ten and negative wall times.
func TestEncodePageExactSize(t *testing.T) {
	pg := wirePage(1<<63, "", "a", string(bytes.Repeat([]byte("b"), 300)))
	pg.Records[0].Wall = -1
	pg.Records[1].Wall = -1 << 62
	pg.Records[1].CommitTS = 1<<64 - 1
	pg.Records[2].CommitTS = 0
	pg.Uploaded = 5
	pages := []Page{pg, wirePage(0, "x"), wirePage(127, "y", "z"), wirePage(128, string(bytes.Repeat([]byte("w"), 1<<14)))}
	for _, pg := range pages {
		frame := EncodePage(pg)
		if len(frame) != cap(frame) {
			t.Fatalf("page at %d: frame len %d cap %d", pg.FirstLSN, len(frame), cap(frame))
		}
		if got, want := len(frame)-pageWireHeader, len(appendRecords(nil, pg.Records)); got != want {
			t.Fatalf("page at %d: payload %d bytes, appendRecords writes %d", pg.FirstLSN, got, want)
		}
		got, err := DecodePage(frame)
		if err != nil || !reflect.DeepEqual(got, pg) {
			t.Fatalf("page at %d: round trip: %v\n got %+v\nwant %+v", pg.FirstLSN, err, got, pg)
		}
	}
}

// TestDecodePageAliasesFrame: a decoded page's records share the frame's
// bytes instead of copying them, and each record's Data is capped at its
// own end, so appending to one never writes into the next.
func TestDecodePageAliasesFrame(t *testing.T) {
	frame := EncodePage(wirePage(4, "one", "two"))
	pg, err := DecodePage(frame)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(frame, []byte("one"))
	frame[i] = 'O'
	if string(pg.Records[0].Data) != "One" {
		t.Fatalf("record 0 reads %q after the frame changed: not an alias", pg.Records[0].Data)
	}
	_ = append(pg.Records[0].Data, 'X')
	if string(pg.Records[1].Data) != "two" {
		t.Fatalf("appending to record 0 changed record 1 to %q", pg.Records[1].Data)
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
		{"uploaded", func(b []byte) { b[29]++ }},
		{"crc", func(b []byte) { b[30] ^= 0xff }},
		{"length", func(b []byte) { binary.BigEndian.PutUint32(b[34:38], 1) }},
		{"oversized-length", func(b []byte) { binary.BigEndian.PutUint32(b[34:38], MaxWirePageBytes+1) }},
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

// TestDecodePageRejectsV1Frames: a version-1 frame, which carried no
// upload watermark, is refused as a version error rather than read with
// its CRC and length taken for the watermark.
func TestDecodePageRejectsV1Frames(t *testing.T) {
	body := appendRecords(nil, wirePage(3, "hello").Records)
	v1 := make([]byte, 30, 30+len(body))
	copy(v1, pageWireMagic[:])
	v1[4] = 1
	binary.BigEndian.PutUint64(v1[6:14], 3)
	binary.BigEndian.PutUint64(v1[14:22], 4)
	binary.BigEndian.PutUint32(v1[22:26], crc32.Checksum(body, pageCRCTable))
	binary.BigEndian.PutUint32(v1[26:30], uint32(len(body)))
	v1 = append(v1, body...)
	if _, err := DecodePage(v1); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("v1 frame: err %v, want an unsupported-version error", err)
	}
}

func TestDecodeRecordsRejectsHostileCounts(t *testing.T) {
	// A chunk claiming 2^40 records in a few bytes must be rejected before
	// the decoder sizes any allocation from the count.
	buf := EncodeRecords(testPlacement, nil) // ends in a one-byte count of 0
	buf = binary.AppendUvarint(buf[:len(buf)-1], 1<<40)
	if _, _, err := DecodeRecords(buf); err == nil {
		t.Fatal("hostile record count accepted")
	}
	// Same for a record whose data length runs past the chunk.
	one := EncodeRecords(testPlacement, []Record{{LSN: 1, Kind: KindInsert, Data: []byte("abc")}})
	if _, _, err := DecodeRecords(one[:len(one)-1]); err == nil {
		t.Fatal("truncated record data accepted")
	}
	// Trailing garbage after the declared records is corruption, not slack.
	if _, _, err := DecodeRecords(append(append([]byte(nil), one...), 0xee)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// A chunk of a version this build does not read is a typed error.
	one[1] = chunkVersion + 1
	if _, _, err := DecodeRecords(one); !errors.Is(err, codec.ErrVersion) {
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
	f.Add(EncodePage(withUploaded(wirePage(40, "up", "loaded"), 41)))
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
	f.Add(EncodeRecords(testPlacement, wirePage(0, "a").Records))
	f.Add(EncodeRecords(Placement{HashVersion: 1, Partitions: 1 << 40}, wirePage(9, "hello", "", "world").Records))
	f.Add(EncodeRecords(testPlacement, nil))
	f.Add(binary.AppendUvarint(codec.AppendHeader(nil, codec.ObjLogChunk, chunkVersion), 1<<40))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		pl, recs, err := DecodeRecords(data)
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
		enc := EncodeRecords(pl, recs)
		plAgain, again, err := DecodeRecords(enc)
		if err != nil {
			t.Fatalf("re-decode of an accepted chunk: %v", err)
		}
		if !bytes.Equal(EncodeRecords(plAgain, again), enc) {
			t.Fatal("unstable round trip")
		}
	})
}
