package index

import (
	"slices"
	"sort"
	"sync"

	"s2db/internal/colstore"
	"s2db/internal/types"
)

// Match is an index lookup result: the row offsets matching the probe
// within one segment.
type Match struct {
	SegID uint64
	Rows  Postings
}

// Set manages every secondary-index structure for one table partition,
// composing them the way §4.1.1 prescribes: single-column inverted and
// global indexes are built per indexed column and *shared* across
// multi-column indexes; each multi-column index additionally gets a global
// index keyed by the tuple hash to skip segments cheaply on full-key
// probes.
type Set struct {
	schema *types.Schema

	mu sync.RWMutex
	// cols holds the shared single-column structures, keyed by ordinal.
	cols map[int]*columnIndex
	// tuples holds one global index per multi-column key; a table has a
	// handful, so probes find theirs by comparing ordinals.
	tuples []tupleIndex
}

type columnIndex struct {
	global *GlobalIndex
	segs   map[uint64]*SegmentIndex
}

type tupleIndex struct {
	cols   []int
	global *GlobalIndex
}

// NewSet builds the index structures required by the schema's secondary
// and unique keys.
func NewSet(schema *types.Schema) *Set {
	s := &Set{
		schema: schema,
		cols:   make(map[int]*columnIndex),
	}
	addKey := func(key []int) {
		for _, c := range key {
			if _, ok := s.cols[c]; !ok {
				s.cols[c] = &columnIndex{global: NewGlobalIndex(), segs: make(map[uint64]*SegmentIndex)}
			}
		}
		if len(key) > 1 && s.tuple(key) == nil {
			s.tuples = append(s.tuples, tupleIndex{cols: slices.Clone(key), global: NewGlobalIndex()})
		}
	}
	for _, key := range schema.SecondaryKeys {
		addKey(key)
	}
	if len(schema.UniqueKey) > 0 {
		addKey(schema.UniqueKey)
	}
	return s
}

// tuple returns the global index of a multi-column key, nil when the key
// has none. tuples is fixed by NewSet.
func (s *Set) tuple(cols []int) *GlobalIndex {
	for _, ti := range s.tuples {
		if slices.Equal(ti.cols, cols) {
			return ti.global
		}
	}
	return nil
}

// IndexedColumns returns the ordinals with single-column structures, in
// ascending order.
func (s *Set) IndexedColumns() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]int, 0, len(s.cols))
	for c := range s.cols {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// HasColumn reports whether the ordinal has a single-column index.
func (s *Set) HasColumn(c int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.cols[c]
	return ok
}

// AddSegment indexes a freshly created segment: one inverted index per
// indexed column plus registrations in the per-column and per-tuple global
// indexes. Segments are immutable so this happens once (§4.1); adding an
// indexed segment again is a no-op, which lets a merge index its outputs
// before the install commit that would otherwise index them. The per-segment
// structures are built before the write lock is taken, so probes are only
// held up for the registration.
func (s *Set) AddSegment(seg *colstore.Segment) {
	if s.hasSegment(seg.ID) {
		return
	}
	// cols and tuples are fixed by NewSet; only their contents change.
	segIdx := make(map[int]*SegmentIndex, len(s.cols))
	colHashes := make(map[int][]uint64, len(s.cols))
	for c := range s.cols {
		segIdx[c] = BuildSegmentIndex(seg, c)
		colHashes[c] = segIdx[c].ValueHashes()
	}
	tupleHashes := make([][]uint64, len(s.tuples))
	for i, ti := range s.tuples {
		tupleHashes[i] = tupleHashesOf(seg.NumRows, ti.cols, segIdx)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hasSegmentLocked(seg.ID) {
		return
	}
	for c, ci := range s.cols {
		ci.segs[seg.ID] = segIdx[c]
		ci.global.AddSegment(seg.ID, colHashes[c])
	}
	for i, ti := range s.tuples {
		ti.global.AddSegment(seg.ID, tupleHashes[i])
	}
}

// hasSegment reports whether the segment is indexed. Every tuple key's
// columns also have single-column structures, so checking those suffices.
func (s *Set) hasSegment(id uint64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.hasSegmentLocked(id)
}

func (s *Set) hasSegmentLocked(id uint64) bool {
	for _, ci := range s.cols {
		if _, ok := ci.segs[id]; ok {
			return true
		}
	}
	return false
}

// tupleHashesOf returns the tuple hash of every row of an n-row segment
// with no NULL in cols, from the columns' segment indexes: a row's tuple
// key is its columns' distinct keys in turn, so no row is decoded again.
func tupleHashesOf(n int, cols []int, segIdx map[int]*SegmentIndex) []uint64 {
	ords := make([][]int32, len(cols))
	for j, c := range cols {
		ords[j] = segIdx[c].valueOrdinals(n)
	}
	out := make([]uint64, 0, n)
	var enc []byte
rows:
	for r := 0; r < n; r++ {
		enc = enc[:0]
		for j, c := range cols {
			v := ords[j][r]
			if v < 0 {
				continue rows
			}
			enc = append(enc, segIdx[c].key(int(v))...)
		}
		out = append(out, types.KeyHash(enc))
	}
	return out
}

// DropSegment lazily removes a segment from every structure (after a merge
// retires it).
func (s *Set) DropSegment(segID uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ci := range s.cols {
		delete(ci.segs, segID)
		ci.global.DropSegment(segID)
	}
	for _, ti := range s.tuples {
		ti.global.DropSegment(segID)
	}
}

// LookupColumn finds all (segment, rows) matches for column == val using
// the global index to select candidate segments and the per-segment
// inverted indexes for postings. probes reports global hash-table probes.
func (s *Set) LookupColumn(col int, val types.Value) (matches []Match, probes int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ci, ok := s.cols[col]
	if !ok || val.IsNull {
		return nil, 0
	}
	segs, p := ci.global.Lookup(types.HashMany([]types.Value{val}))
	probes = p
	for _, segID := range segs {
		si := ci.segs[segID]
		if si == nil {
			continue
		}
		if rows := si.Lookup(val); len(rows) > 0 {
			matches = append(matches, Match{SegID: segID, Rows: rows})
		}
	}
	return matches, probes
}

// LookupTuple finds matches for a full key probe (every indexed column
// equal). For multi-column keys it uses the tuple global index to skip
// segments, then intersects per-column postings (§4.1.1).
func (s *Set) LookupTuple(cols []int, vals []types.Value) (matches []Match, probes int) {
	if len(cols) == 1 {
		return s.LookupColumn(cols[0], vals[0])
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	gi := s.tuple(cols)
	if gi == nil {
		return nil, 0
	}
	for _, v := range vals {
		if v.IsNull {
			return nil, 0
		}
	}
	segs, p := gi.Lookup(types.HashMany(vals))
	probes = p
	for _, segID := range segs {
		lists := make([]Postings, 0, len(cols))
		ok := true
		for i, c := range cols {
			ci := s.cols[c]
			si := ci.segs[segID]
			if si == nil {
				ok = false
				break
			}
			l := si.Lookup(vals[i])
			if len(l) == 0 {
				ok = false
				break
			}
			lists = append(lists, l)
		}
		if !ok {
			continue
		}
		if rows := IntersectAll(lists); len(rows) > 0 {
			matches = append(matches, Match{SegID: segID, Rows: rows})
		}
	}
	return matches, probes
}

// SegmentPostings returns the postings list for one (segment, column,
// value), used by the secondary-index filter strategy (§5.2).
func (s *Set) SegmentPostings(segID uint64, col int, val types.Value) (Postings, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ci, ok := s.cols[col]
	if !ok {
		return nil, false
	}
	si := ci.segs[segID]
	if si == nil {
		return nil, false
	}
	return si.Lookup(val), true
}
