package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrCorrupt is wrapped by every error a Reader reports for malformed
// input: truncated or trailing bytes, a count or length the bytes left
// cannot hold, a bad varint, or a value a decoder rejects through Fail.
var ErrCorrupt = errors.New("corrupt input")

// ErrVersion is wrapped by the error for a blob object whose header names
// a version this build does not read.
var ErrVersion = errors.New("unknown object version")

// Object is the kind byte at the head of a blob object. Every object
// stored in blob storage starts with AppendHeader's two bytes, kind then
// version, so a reader can tell one format from the next.
type Object byte

const (
	// ObjSegment is a columnstore segment: a data/ file, and the segment
	// bytes inside a flush, merge or bulk-load log record.
	ObjSegment Object = 'S'
	// ObjLogChunk is a staged log chunk (log/).
	ObjLogChunk Object = 'L'
	// ObjSnapshot is a partition snapshot bundle (snap/).
	ObjSnapshot Object = 'B'
)

// AppendHeader appends an object header: the kind byte and the version.
func AppendHeader(buf []byte, kind Object, version byte) []byte {
	return append(buf, byte(kind), version)
}

// AppendBytes appends b with a uvarint length prefix; Reader.Field reads
// it back.
func AppendBytes[T ~string | ~[]byte](buf []byte, b T) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// Reader decodes bytes that come from outside the program — blob objects
// and socket payloads — with every bound checked in one place. Its error
// is sticky: the first failure is kept, with the byte offset it happened
// at, and the Reader moves to the end of its input, so every later read
// fails too and returns a zero value (an empty slice for Bytes(0)). A
// decoder reads its fields straight through and checks Err (or Done)
// once. Nested decoders take the *Reader and leave the position after
// what they read.
type Reader struct {
	buf []byte
	pos int
	err error
}

// NewReader returns a Reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first error, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of bytes left.
func (r *Reader) Len() int { return len(r.buf) - r.pos }

// Fail records a corrupt-input error at the current offset unless an
// error is already recorded. Decoders call it for values that parse but
// break an invariant the format promises.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.stop(fmt.Errorf("%w at byte %d: %s", ErrCorrupt, r.pos, fmt.Sprintf(format, args...)))
	}
}

// stop records err and moves to the end of the input, so that every later
// read fails (a no-op once err is recorded) and returns a zero value.
func (r *Reader) stop(err error) { r.err, r.pos = err, len(r.buf) }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if p := r.pos; p < len(r.buf) {
		r.pos = p + 1
		return r.buf[p]
	}
	r.Fail("truncated")
	return 0
}

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	b := r.Byte()
	if b > 1 {
		r.Fail("flag byte %d", b)
	}
	return b == 1
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	// Values below 2^14 — most lengths, counts and LZ offsets — are read
	// here without a loop.
	if p := r.pos; p < len(r.buf) && r.buf[p] < 0x80 {
		r.pos = p + 1
		return uint64(r.buf[p])
	} else if p+1 < len(r.buf) && r.buf[p+1] < 0x80 {
		r.pos = p + 2
		return uint64(r.buf[p]&0x7f) | uint64(r.buf[p+1])<<7
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.Fail("bad uvarint")
		return 0
	}
	r.pos += n
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		r.Fail("bad varint")
		return 0
	}
	r.pos += n
	return v
}

// U64 reads a fixed little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.Bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// U64s reads n fixed little-endian uint64s into a new slice, checking n
// against the bytes left before allocating.
func (r *Reader) U64s(n uint64) []uint64 {
	if n > uint64(r.Len())/8 {
		r.Fail("%d words past the end", n)
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(r.buf[r.pos:])
		r.pos += 8
	}
	return out
}

// Bytes returns the next n bytes. The result aliases the input, with its
// capacity cut to n; a caller that keeps it past the input's life copies
// it.
func (r *Reader) Bytes(n uint64) []byte {
	if p := r.pos; n <= uint64(len(r.buf)-p) {
		r.pos = p + int(n)
		return r.buf[p:r.pos:r.pos]
	}
	r.Fail("%d bytes past the end", n)
	return nil
}

// Field reads a length-prefixed byte string written by AppendBytes.
func (r *Reader) Field() []byte {
	// A one-byte length whose bytes are all present, as most are, takes
	// one call rather than three.
	if p := r.pos; p < len(r.buf) && r.buf[p] < 0x80 && int(r.buf[p]) < len(r.buf)-p {
		r.pos = p + 1 + int(r.buf[p])
		return r.buf[p+1 : r.pos : r.pos]
	}
	return r.Bytes(r.Uvarint())
}

// Count reads an element count and rejects one the bytes left cannot hold
// when every element takes at least minBytesEach bytes (at least 1), so a
// caller may size an allocation from the result.
func (r *Reader) Count(minBytesEach int) int {
	n := r.Uvarint()
	if n > uint64(r.Len()/minBytesEach) {
		r.Fail("count %d past the end", n)
		return 0
	}
	return int(n)
}

// Header reads an object header written by AppendHeader and returns its
// version for the caller to check. A kind byte other than kind is corrupt.
func (r *Reader) Header(kind Object) byte {
	k := Object(r.Byte())
	v := r.Byte()
	if k != kind {
		r.Fail("object kind %q, want %q", k, kind)
		return 0
	}
	return v
}

// Unsupported records an error wrapping ErrVersion, unless an error is
// already recorded: the object's header names version v, which this build
// does not read.
func (r *Reader) Unsupported(v byte) {
	if r.err == nil {
		r.stop(fmt.Errorf("%w %d", ErrVersion, v))
	}
}

// Done returns the first error, or a corrupt-input error if bytes are
// left over: a decoder that read a whole object ends with it.
func (r *Reader) Done() error {
	if r.err == nil && r.pos != len(r.buf) {
		r.Fail("%d trailing bytes", len(r.buf)-r.pos)
	}
	return r.err
}
