package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"s2db/internal/codec"
)

// Wire codec for replication pages: when a page crosses a real transport
// (the cluster's loopback-TCP path) instead of an in-process channel, it
// serializes to a self-contained frame with a versioned header and a CRC
// over the record payload, so the receiving replica can reject truncated,
// corrupt or mis-framed pages before applying anything.
//
// Frame layout (fixed fields big-endian):
//
//	[0:4)   magic "S2PG"
//	[4]     wire version (PageWireVersion)
//	[5]     flags (reserved, must be 0)
//	[6:14)  FirstLSN
//	[14:22) EndLSN
//	[22:26) CRC-32C (Castagnoli) of the payload
//	[26:30) payload length
//	[30:)   payload = the records, as a log chunk holds them after its
//	        object header (EncodeRecords)
const (
	// PageWireVersion is the current frame version; DecodePage rejects
	// frames from any other version rather than guessing.
	PageWireVersion = 1
	// MaxWirePageBytes caps a frame's payload. DecodePage rejects larger
	// claims before allocating, bounding memory against corrupt or hostile
	// length fields (pages seal at the log's MaxBytes, far below this).
	MaxWirePageBytes = 64 << 20

	pageWireHeader = 30
)

var (
	pageWireMagic = [4]byte{'S', '2', 'P', 'G'}
	pageCRCTable  = crc32.MakeTable(crc32.Castagnoli)
)

// EncodePage serializes a page into a wire frame. Page.Bytes is accounting
// state, not payload; DecodePage recomputes it.
func EncodePage(pg Page) []byte {
	body := appendRecords(nil, pg.Records)
	buf := make([]byte, pageWireHeader, pageWireHeader+len(body))
	copy(buf[0:4], pageWireMagic[:])
	buf[4] = PageWireVersion
	buf[5] = 0
	binary.BigEndian.PutUint64(buf[6:14], pg.FirstLSN)
	binary.BigEndian.PutUint64(buf[14:22], pg.EndLSN)
	binary.BigEndian.PutUint32(buf[22:26], crc32.Checksum(body, pageCRCTable))
	binary.BigEndian.PutUint32(buf[26:30], uint32(len(body)))
	return append(buf, body...)
}

// DecodePage parses and validates a frame written by EncodePage. Beyond
// the CRC it checks the structural invariants the apply path relies on:
// the record span is non-empty, dense, and matches the header's
// [FirstLSN, EndLSN).
func DecodePage(buf []byte) (Page, error) {
	if len(buf) < pageWireHeader {
		return Page{}, fmt.Errorf("wal: page frame truncated at %d bytes", len(buf))
	}
	if !bytes.Equal(buf[0:4], pageWireMagic[:]) {
		return Page{}, fmt.Errorf("wal: bad page frame magic %q", buf[0:4])
	}
	if buf[4] != PageWireVersion {
		return Page{}, fmt.Errorf("wal: unsupported page frame version %d", buf[4])
	}
	if buf[5] != 0 {
		return Page{}, fmt.Errorf("wal: unsupported page frame flags %#x", buf[5])
	}
	first := binary.BigEndian.Uint64(buf[6:14])
	end := binary.BigEndian.Uint64(buf[14:22])
	if end <= first {
		return Page{}, fmt.Errorf("wal: empty page span [%d,%d)", first, end)
	}
	plen := binary.BigEndian.Uint32(buf[26:30])
	if plen > MaxWirePageBytes {
		return Page{}, fmt.Errorf("wal: page payload claims %d bytes (max %d)", plen, MaxWirePageBytes)
	}
	if int(plen) != len(buf)-pageWireHeader {
		return Page{}, fmt.Errorf("wal: page payload length %d does not match frame size %d", plen, len(buf)-pageWireHeader)
	}
	body := buf[pageWireHeader:]
	want := binary.BigEndian.Uint32(buf[22:26])
	if got := crc32.Checksum(body, pageCRCTable); got != want {
		return Page{}, fmt.Errorf("wal: page payload CRC mismatch (got %08x want %08x)", got, want)
	}
	r := codec.NewReader(body)
	recs := readRecords(r)
	if err := r.Done(); err != nil {
		return Page{}, fmt.Errorf("wal: page payload: %w", err)
	}
	if uint64(len(recs)) != end-first {
		return Page{}, fmt.Errorf("wal: page carries %d records for span [%d,%d)", len(recs), first, end)
	}
	for i := range recs {
		if recs[i].LSN != first+uint64(i) {
			return Page{}, fmt.Errorf("wal: page record %d has LSN %d, want %d", i, recs[i].LSN, first+uint64(i))
		}
	}
	return Page{FirstLSN: first, EndLSN: end, Bytes: recsBytes(recs), Records: recs}, nil
}
