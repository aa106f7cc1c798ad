// Package types defines the value model shared by every storage and
// execution layer in s2db: column types, schemas, rows and the ordering,
// equality and hashing rules the engine relies on.
package types

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// ColType enumerates the column types supported by the engine.
type ColType uint8

const (
	// Int64 is a 64-bit signed integer column.
	Int64 ColType = iota
	// Float64 is a 64-bit IEEE-754 column.
	Float64
	// String is a variable-length byte-string column.
	String
)

// String returns the SQL-ish name of the type.
func (t ColType) String() string {
	switch t {
	case Int64:
		return "BIGINT"
	case Float64:
		return "DOUBLE"
	case String:
		return "TEXT"
	}
	return fmt.Sprintf("ColType(%d)", uint8(t))
}

// Value is a dynamically-typed cell. Exactly one representation is active,
// selected by Type. Null values have IsNull set.
type Value struct {
	Type   ColType
	IsNull bool
	I      int64
	F      float64
	S      string
}

// NewInt returns an Int64 value.
func NewInt(v int64) Value { return Value{Type: Int64, I: v} }

// NewFloat returns a Float64 value.
func NewFloat(v float64) Value { return Value{Type: Float64, F: v} }

// NewString returns a String value.
func NewString(v string) Value { return Value{Type: String, S: v} }

// Null returns a null value of type t.
func Null(t ColType) Value { return Value{Type: t, IsNull: true} }

// String renders the value for debugging and harness output.
func (v Value) String() string {
	if v.IsNull {
		return "NULL"
	}
	switch v.Type {
	case Int64:
		return fmt.Sprintf("%d", v.I)
	case Float64:
		return fmt.Sprintf("%g", v.F)
	case String:
		return v.S
	}
	return "?"
}

// Compare orders two values of the same type. Nulls sort first. The result
// is negative, zero or positive in the manner of strings.Compare.
func Compare(a, b Value) int {
	if a.IsNull || b.IsNull {
		switch {
		case a.IsNull && b.IsNull:
			return 0
		case a.IsNull:
			return -1
		default:
			return 1
		}
	}
	switch a.Type {
	case Int64:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	case Float64:
		switch {
		case a.F < b.F:
			return -1
		case a.F > b.F:
			return 1
		}
		return 0
	case String:
		return strings.Compare(a.S, b.S)
	}
	return 0
}

// Equal reports whether two values are equal. Nulls equal only nulls.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// KeyHash is the engine's one key hash: FNV-1a over EncodeKey bytes, with
// fixed constants, so it means the same thing in every process. It places
// rows on partitions (§2), keys the global index (§4.1.1) and the unique-key
// locks, and so must agree with whatever blob and the next process hold.
// Placement takes it modulo the partition count unmixed: on two partitions
// it splits the int keys 0–255 by parity.
func KeyHash(enc []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range enc {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// KeyHashVersion names KeyHash's definition together with EncodeKey's. A
// snapshot bundle records it, and a restore refuses a bundle whose keys
// were placed by another version.
const KeyHashVersion = 1

// HashMany is KeyHash of the tuple's key encoding.
func HashMany(vs []Value) uint64 {
	var buf [64]byte
	return KeyHash(EncodeKey(buf[:0], vs...))
}

// Row is a tuple of values laid out in schema column order.
type Row []Value

// Clone returns a deep-enough copy of the row (strings are immutable in Go,
// so value copies suffice).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Project returns the sub-row at the given column ordinals.
func (r Row) Project(cols []int) Row {
	out := make(Row, len(cols))
	for i, c := range cols {
		out[i] = r[c]
	}
	return out
}

// Column describes one column of a table schema.
type Column struct {
	Name string
	Type ColType
}

// Schema describes the columns of a table together with the key options the
// unified table storage supports (§4): a sort key, a shard key, secondary
// keys and unique keys.
type Schema struct {
	Columns []Column
	// SortKey is the ordinal of the column segments are sorted by, or -1.
	SortKey int
	// ShardKey holds the ordinals of the hash-partitioning columns. Empty
	// means shard on the first column.
	ShardKey []int
	// SecondaryKeys lists secondary indexes; each entry is the ordinals of
	// the indexed columns (multi-column indexes allowed, §4.1.1).
	SecondaryKeys [][]int
	// UniqueKey holds the ordinals of the enforced unique key, or nil.
	// A unique key is automatically also a secondary index (§4.1.2).
	UniqueKey []int
}

// NewSchema builds a schema with no keys configured.
func NewSchema(cols ...Column) *Schema {
	return &Schema{Columns: cols, SortKey: -1}
}

// ColIndex returns the ordinal of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Validate checks that key ordinals are in range and types are consistent.
func (s *Schema) Validate() error {
	n := len(s.Columns)
	if n == 0 {
		return fmt.Errorf("schema has no columns")
	}
	seen := map[string]bool{}
	for _, c := range s.Columns {
		if c.Name == "" {
			return fmt.Errorf("schema has an unnamed column")
		}
		if seen[c.Name] {
			return fmt.Errorf("duplicate column name %q", c.Name)
		}
		seen[c.Name] = true
	}
	check := func(what string, idx int) error {
		if idx < 0 || idx >= n {
			return fmt.Errorf("%s ordinal %d out of range [0,%d)", what, idx, n)
		}
		return nil
	}
	if s.SortKey != -1 {
		if err := check("sort key", s.SortKey); err != nil {
			return err
		}
	}
	for _, i := range s.ShardKey {
		if err := check("shard key", i); err != nil {
			return err
		}
	}
	for _, key := range s.SecondaryKeys {
		if len(key) == 0 {
			return fmt.Errorf("empty secondary key")
		}
		for _, i := range key {
			if err := check("secondary key", i); err != nil {
				return err
			}
		}
	}
	for _, i := range s.UniqueKey {
		if err := check("unique key", i); err != nil {
			return err
		}
	}
	return nil
}

// CheckRow verifies that the row matches the schema arity and types and
// holds no NaN.
func (s *Schema) CheckRow(r Row) error {
	if len(r) != len(s.Columns) {
		return fmt.Errorf("row has %d values, schema has %d columns", len(r), len(s.Columns))
	}
	for i, v := range r {
		if v.Type != s.Columns[i].Type {
			return fmt.Errorf("column %q: row value type %v, want %v", s.Columns[i].Name, v.Type, s.Columns[i].Type)
		}
		// NaN is the one float Compare cannot order (it equals everything)
		// while the segment kernels' IEEE operators match it to nothing;
		// refusing it here makes the two orders agree on every stored value.
		if v.Type == Float64 && !v.IsNull && math.IsNaN(v.F) {
			return fmt.Errorf("column %q: NaN cannot be stored", s.Columns[i].Name)
		}
	}
	return nil
}

// ShardColumns returns the effective shard key ordinals (defaulting to the
// first column when unset).
func (s *Schema) ShardColumns() []int {
	if len(s.ShardKey) > 0 {
		return s.ShardKey
	}
	return []int{0}
}

// ShardHash hashes the row's shard-key columns for partition routing.
func (s *Schema) ShardHash(r Row) uint64 {
	var buf [64]byte
	enc := buf[:0]
	for _, c := range s.ShardColumns() {
		enc = EncodeKey(enc, r[c])
	}
	return KeyHash(enc)
}

// Pin is one top-level equality a statement pins: column Col = Val.
type Pin struct {
	Col int
	Val Value
}

// Placement is where every row a statement's pins can match lives: one
// way into the write buffer and, when every shard column is pinned, one
// partition. The zero value places nothing (scan all of it, everywhere).
//
// Place picks the buffer path in this order: a fully pinned unique key
// (at most one row), a fully pinned buffer-indexed secondary key, the
// pinned unique-key prefix range, and otherwise a walk of the whole
// buffer. Exactly one of Key and Secondary is non-empty, or neither.
type Placement struct {
	// Key is the pinned unique-key prefix the buffer seeks, in key order;
	// empty when the first unique-key column is unpinned, when there is no
	// key, or when the secondary seek was picked instead.
	Key []Value
	// From and To bound the buffer keys that start with Key's encoding:
	// [From, To). 0x02 sorts above both column tags (0x00 NULL, 0x01
	// value), so the range holds exactly the rows with that prefix. Both
	// nil when Key is empty.
	From, To []byte
	// Secondary holds the pinned values of SecondaryKeys[Index], in the
	// key's column order, when the buffer seeks that key's in-buffer
	// index (see BufferIndexes); empty otherwise.
	Secondary []Value
	Index     int

	shard       uint64
	shardPinned bool
}

// Seeks reports whether the placement narrows the buffer to a key range
// or a secondary key; false means a walk of the whole buffer.
func (p Placement) Seeks() bool { return p.From != nil || p.To != nil || len(p.Secondary) > 0 }

// Partition returns the one partition out of n that owns every row the
// pins can match, or false when some shard column is unpinned.
func (p Placement) Partition(n int) (int, bool) {
	if !p.shardPinned {
		return 0, false
	}
	return int(p.shard % uint64(n)), true
}

// Place derives the Placement of a statement from its pins. A pin counts
// only when its value is a non-NULL literal of the column's own type.
func (s *Schema) Place(pins []Pin) Placement {
	pinned := func(col int) (Value, bool) {
		for _, p := range pins {
			if p.Col == col && !p.Val.IsNull && p.Val.Type == s.Columns[col].Type {
				return p.Val, true
			}
		}
		return Value{}, false
	}
	var p Placement
	for i, c := range s.UniqueKey {
		v, ok := pinned(c)
		if !ok {
			break
		}
		if i == 0 {
			p.Key = make([]Value, 0, len(s.UniqueKey))
		}
		p.Key = append(p.Key, v)
	}
	if len(s.UniqueKey) == 0 || len(p.Key) < len(s.UniqueKey) {
		for i, key := range s.SecondaryKeys {
			if !s.bufferIndexed(key) {
				continue
			}
			var vals []Value
			for _, c := range key {
				v, ok := pinned(c)
				if !ok {
					break
				}
				vals = append(vals, v)
			}
			if len(vals) == len(key) {
				p.Key, p.Secondary, p.Index = nil, vals, i
				break
			}
		}
	}
	if len(p.Key) > 0 {
		p.From = EncodeKey(nil, p.Key...)
		p.To = append(p.From[:len(p.From):len(p.From)], 0x02)
	}
	var buf [64]byte
	enc := buf[:0]
	for _, c := range s.ShardColumns() {
		v, ok := pinned(c)
		if !ok {
			return p
		}
		enc = EncodeKey(enc, v)
	}
	p.shard, p.shardPinned = KeyHash(enc), true
	return p
}

// BufferIndexes returns, for each of SecondaryKeys, the columns the write
// buffer indexes it by, or nil for a key the unique-key order already
// answers: one whose columns are a unique-key prefix, or that holds every
// unique-key column (a fully pinned unique key is a seek of at most one
// row). A rowstore built with these indexes serves Placement.Secondary.
func (s *Schema) BufferIndexes() [][]int {
	out := make([][]int, len(s.SecondaryKeys))
	for i, key := range s.SecondaryKeys {
		if s.bufferIndexed(key) {
			out[i] = key
		}
	}
	return out
}

// bufferIndexed reports whether the write buffer indexes secondary key
// key (see BufferIndexes).
func (s *Schema) bufferIndexed(key []int) bool {
	uk := s.UniqueKey
	if len(uk) == 0 {
		return true
	}
	holdsUnique := true
	for _, c := range uk {
		holdsUnique = holdsUnique && slices.Contains(key, c)
	}
	if holdsUnique {
		return false
	}
	if len(key) > len(uk) {
		return true
	}
	for _, c := range key {
		if !slices.Contains(uk[:len(key)], c) {
			return true
		}
	}
	return false
}

// CompareRows orders two rows by the given key ordinals.
func CompareRows(a, b Row, key []int) int {
	for _, k := range key {
		if c := Compare(a[k], b[k]); c != 0 {
			return c
		}
	}
	return 0
}
