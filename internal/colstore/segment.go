// Package colstore implements the disk-based columnstore (§2.1.2): rows are
// organized into immutable segments storing each column separately with
// per-segment encoding choices, min/max zone metadata for segment
// elimination, and LSM-style sorted runs maintained by a background merger.
// Deleted rows are *not* stored here — they live in the mutable segment
// metadata owned by the unified table layer (§4), keeping the data files
// immutable, which is what makes blob staging possible (§3.1).
package colstore

import (
	"encoding/binary"
	"math"
	"sort"
	"sync/atomic"

	"s2db/internal/bitmap"
	"s2db/internal/codec"
	"s2db/internal/types"
	"s2db/internal/vector"
)

// MaxSegmentRows is the default segment capacity. The paper uses 1M rows
// per segment; the simulator default is smaller so laptop-scale benchmarks
// exercise multi-segment paths.
const MaxSegmentRows = 64 * 1024

// Column is one encoded column of a segment.
type Column struct {
	Ints  codec.IntColumn    // Int64 and Float64 (as IEEE bits) columns
	Strs  codec.StringColumn // String columns
	Nulls *bitmap.Bitmap     // nil when the column has no nulls
}

// Segment is an immutable columnar chunk of a table. Once built its
// contents never change; deletes are recorded in table metadata.
type Segment struct {
	ID      uint64
	NumRows int
	Cols    []Column
	// Min and Max hold per-column min/max values over non-null rows, used
	// for zone-map segment elimination (§2.1.2). HasRange is false for
	// all-null columns.
	Min, Max []types.Value
	HasRange []bool
	schema   *types.Schema
	// retired is set (once, never cleared) when an LSM merge retires the
	// segment. The decoded-vector cache checks it under its lock before
	// installing a vector, so a reader on an older snapshot cannot
	// re-install a vector after the retirement purge.
	retired atomic.Bool
	// hydrated is set (once, never cleared) when the segment's payload —
	// Cols, Min/Max, HasRange — is present. Segments built from rows or
	// decoded from a data file are born hydrated; NewStub produces a
	// metadata-only segment (ID + NumRows from the manifest) whose payload
	// AdoptPayload fills in later. Readers must check Hydrated() before
	// touching payload fields; the store in AdoptPayload is the release
	// barrier making them visible.
	hydrated atomic.Bool
}

// Schema returns the table schema the segment was built under.
func (s *Segment) Schema() *types.Schema { return s.schema }

// Retire marks the segment as retired by a merge. Retirement is one-way.
func (s *Segment) Retire() { s.retired.Store(true) }

// Retired reports whether a merge has retired the segment.
func (s *Segment) Retired() bool { return s.retired.Load() }

// Hydrated reports whether the segment's payload is resident. A false
// return means only ID/NumRows (and table-level metadata such as deleted
// bits) are usable.
func (s *Segment) Hydrated() bool { return s.hydrated.Load() }

// NewStub returns a metadata-only segment: ID and row count from a
// manifest, no column payload. Zone maps and cell reads are unavailable
// until AdoptPayload runs; MayContain conservatively admits everything.
func NewStub(id uint64, numRows int, schema *types.Schema) *Segment {
	return &Segment{ID: id, NumRows: numRows, schema: schema}
}

// AdoptPayload installs a decoded payload into a stub in place, so every
// holder of the stub pointer (segment metadata, indexes, caches) sees the
// data appear without a pointer swap. The decoded segment must be the same
// file the stub was manifested from: the hydrator checks its ID and row
// count against the stub's when it decodes it. Idempotent: adopting into
// an already hydrated segment is a no-op.
func (s *Segment) AdoptPayload(decoded *Segment) {
	if s.hydrated.Load() {
		return
	}
	s.Cols = decoded.Cols
	s.Min = decoded.Min
	s.Max = decoded.Max
	s.HasRange = decoded.HasRange
	s.hydrated.Store(true) // release: payload writes above happen-before readers
}

// Builder accumulates rows and produces an immutable Segment.
type Builder struct {
	schema *types.Schema
	rows   []types.Row
}

// NewBuilder returns a builder for the given schema.
func NewBuilder(schema *types.Schema) *Builder {
	return &Builder{schema: schema}
}

// Add appends a row. The builder takes ownership of the row.
func (b *Builder) Add(row types.Row) { b.rows = append(b.rows, row) }

// Len returns the number of buffered rows.
func (b *Builder) Len() int { return len(b.rows) }

// Build encodes the buffered rows into a segment with the given id. When
// the schema has a sort key, rows are sorted by it first ("rows are fully
// sorted by the sort key within each segment", §2.1.2). The builder is
// drained.
func (b *Builder) Build(id uint64) *Segment {
	rows := b.rows
	b.rows = nil
	if b.schema.SortKey >= 0 {
		k := []int{b.schema.SortKey}
		sort.SliceStable(rows, func(i, j int) bool {
			return types.CompareRows(rows[i], rows[j], k) < 0
		})
	}
	return buildFromRows(id, b.schema, rows)
}

// BuildSegment encodes pre-ordered rows into a segment without re-sorting,
// used by the merger which sorts globally across inputs itself.
func BuildSegment(id uint64, schema *types.Schema, rows []types.Row) *Segment {
	return buildFromRows(id, schema, rows)
}

func buildFromRows(id uint64, schema *types.Schema, rows []types.Row) *Segment {
	n := len(rows)
	seg := &Segment{
		ID:       id,
		NumRows:  n,
		Cols:     make([]Column, len(schema.Columns)),
		Min:      make([]types.Value, len(schema.Columns)),
		Max:      make([]types.Value, len(schema.Columns)),
		HasRange: make([]bool, len(schema.Columns)),
		schema:   schema,
	}
	seg.hydrated.Store(true)
	for c, col := range schema.Columns {
		var nulls *bitmap.Bitmap
		setNull := func(i int) {
			if nulls == nil {
				nulls = bitmap.New(n)
			}
			nulls.Set(i)
		}
		switch col.Type {
		case types.Int64, types.Float64:
			vals := make([]int64, n)
			for i, r := range rows {
				v := r[c]
				if v.IsNull {
					setNull(i)
					continue
				}
				if col.Type == types.Int64 {
					vals[i] = v.I
				} else {
					vals[i] = int64(math.Float64bits(v.F))
				}
				updateRange(seg, c, v)
			}
			seg.Cols[c] = Column{Ints: codec.EncodeInts(vals), Nulls: nulls}
		case types.String:
			vals := make([]string, n)
			for i, r := range rows {
				v := r[c]
				if v.IsNull {
					setNull(i)
					continue
				}
				vals[i] = v.S
				updateRange(seg, c, v)
			}
			seg.Cols[c] = Column{Strs: codec.EncodeStrings(vals), Nulls: nulls}
		}
	}
	return seg
}

func updateRange(seg *Segment, c int, v types.Value) {
	if !seg.HasRange[c] {
		seg.Min[c], seg.Max[c] = v, v
		seg.HasRange[c] = true
		return
	}
	if types.Compare(v, seg.Min[c]) < 0 {
		seg.Min[c] = v
	}
	if types.Compare(v, seg.Max[c]) > 0 {
		seg.Max[c] = v
	}
}

// ValueAt returns the value at (row, col), decoding only that cell
// (seekable encodings make this cheap, §2.1.2).
func (s *Segment) ValueAt(row, col int) types.Value {
	cc := s.Cols[col]
	t := s.schema.Columns[col].Type
	if cc.Nulls != nil && cc.Nulls.Get(row) {
		return types.Null(t)
	}
	switch t {
	case types.Int64:
		return types.NewInt(cc.Ints.At(row))
	case types.Float64:
		return types.NewFloat(math.Float64frombits(uint64(cc.Ints.At(row))))
	default:
		return types.NewString(cc.Strs.At(row))
	}
}

// RowAt materializes the full row at the given offset.
func (s *Segment) RowAt(row int) types.Row {
	out := make(types.Row, len(s.schema.Columns))
	for c := range s.schema.Columns {
		out[c] = s.ValueAt(row, c)
	}
	return out
}

// IntValues decodes an Int64/Float64-bits column fully into dst.
func (s *Segment) IntValues(col int, dst []int64) []int64 {
	return s.Cols[col].Ints.DecodeAll(dst)
}

// MayContain reports whether the segment's zone map admits a value
// satisfying "col op v"; false means the whole segment can be eliminated
// without touching data files (§5.1). It decides by vector.CmpValue, the
// rule the kernels apply to the rows themselves, so a constant no stored
// value compares with (a NaN) never eliminates a segment a row would pass.
func (s *Segment) MayContain(col int, op int, v types.Value) bool {
	// op is a vector.CmpOp: Eq, Ne, Lt, Le, Gt, Ge.
	if !s.hydrated.Load() {
		return true // no zone map yet: cannot eliminate an unhydrated stub
	}
	if !s.HasRange[col] {
		return false // all null: no comparison can hold
	}
	lo, hi := s.Min[col], s.Max[col]
	switch o := vector.CmpOp(op); o {
	case vector.Eq:
		return vector.CmpValue(lo, vector.Le, v) && vector.CmpValue(v, vector.Le, hi)
	case vector.Ne:
		return !(vector.CmpValue(lo, vector.Eq, hi) && vector.CmpValue(lo, vector.Eq, v))
	case vector.Lt, vector.Le:
		return vector.CmpValue(lo, o, v)
	default: // Gt, Ge
		return vector.CmpValue(hi, o, v)
	}
}

// --- serialization ---------------------------------------------------------

// segmentVersion is the segment format version Encode writes and Decode
// reads.
const segmentVersion = 1

// Encode serializes the segment into a self-contained data file payload.
func (s *Segment) Encode() []byte {
	buf := codec.AppendHeader(nil, codec.ObjSegment, segmentVersion)
	buf = binary.AppendUvarint(buf, s.ID)
	buf = binary.AppendUvarint(buf, uint64(s.NumRows))
	buf = binary.AppendUvarint(buf, uint64(len(s.Cols)))
	for c := range s.Cols {
		cc := s.Cols[c]
		buf = append(buf, byte(s.schema.Columns[c].Type))
		if cc.Nulls != nil {
			buf = append(buf, 1)
			buf = cc.Nulls.AppendBinary(buf)
		} else {
			buf = append(buf, 0)
		}
		if cc.Ints != nil {
			buf = cc.Ints.AppendBinary(buf)
		} else {
			buf = cc.Strs.AppendBinary(buf)
		}
		buf = append(buf, boolByte(s.HasRange[c]))
		if s.HasRange[c] {
			buf = appendValue(buf, s.Min[c])
			buf = appendValue(buf, s.Max[c])
		}
	}
	return buf
}

// Decode deserializes a segment encoded by Encode. The schema must match
// the one the segment was built with. Segments come back from blob storage
// and over the replication link, so Decode validates what the readers of a
// segment rely on: at most math.MaxInt32 rows, every column and null
// bitmap holding exactly NumRows rows, and no trailing bytes.
func Decode(buf []byte, schema *types.Schema) (*Segment, error) {
	r := codec.NewReader(buf)
	if v := r.Header(codec.ObjSegment); v != segmentVersion {
		r.Unsupported(v)
	}
	id, nrows := r.Uvarint(), r.Uvarint()
	if nrows > math.MaxInt32 {
		r.Fail("segment claims %d rows", nrows)
	}
	if ncols := r.Uvarint(); r.Err() == nil && ncols != uint64(len(schema.Columns)) {
		r.Fail("segment has %d columns, schema has %d", ncols, len(schema.Columns))
	}
	n, ncols := int(nrows), len(schema.Columns)
	seg := &Segment{
		ID: id, NumRows: n,
		Cols:     make([]Column, ncols),
		Min:      make([]types.Value, ncols),
		Max:      make([]types.Value, ncols),
		HasRange: make([]bool, ncols),
		schema:   schema,
	}
	for c, col := range schema.Columns {
		if ct := types.ColType(r.Byte()); r.Err() == nil && ct != col.Type {
			r.Fail("column %d type %v, schema says %v", c, ct, col.Type)
		}
		cc := &seg.Cols[c]
		if r.Bool() {
			cc.Nulls = bitmap.Decode(r)
			if cc.Nulls != nil && cc.Nulls.Len() != n {
				r.Fail("column %d null bitmap has %d rows, segment %d", c, cc.Nulls.Len(), n)
			}
		}
		rows := n
		if col.Type == types.String {
			if cc.Strs = codec.DecodeStringColumn(r); cc.Strs != nil {
				rows = cc.Strs.Len()
			}
		} else if cc.Ints = codec.DecodeIntColumn(r); cc.Ints != nil {
			rows = cc.Ints.Len()
		}
		if rows != n {
			r.Fail("column %d has %d rows, segment %d", c, rows, n)
		}
		if seg.HasRange[c] = r.Bool(); seg.HasRange[c] {
			seg.Min[c] = decodeValue(r, col.Type)
			seg.Max[c] = decodeValue(r, col.Type)
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	seg.hydrated.Store(true)
	return seg, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func appendValue(buf []byte, v types.Value) []byte {
	switch v.Type {
	case types.Int64:
		return binary.AppendVarint(buf, v.I)
	case types.Float64:
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F))
	default:
		return codec.AppendBytes(buf, v.S)
	}
}

func decodeValue(r *codec.Reader, t types.ColType) types.Value {
	switch t {
	case types.Int64:
		return types.NewInt(r.Varint())
	case types.Float64:
		return types.NewFloat(math.Float64frombits(r.U64()))
	default:
		return types.NewString(string(r.Field()))
	}
}
