package types

import (
	"bytes"
	"math"
	"testing"
)

// eqMatch is the row semantics of an equality clause (vector.CmpValue with
// Eq): a comparison with NULL is never true, floats compare as IEEE (NaN
// equals nothing, -0.0 equals 0.0), otherwise Compare decides.
func eqMatch(a, b Value) bool {
	if a.IsNull || b.IsNull {
		return false
	}
	if a.Type == Float64 {
		return a.F == b.F
	}
	return Compare(a, b) == 0
}

// checkPlace asserts Place's contract against a walk of every row: the key
// range holds exactly the rows with the pinned prefix, and the secondary
// seek exactly the rows whose key encodes like the pinned values, so
// neither drops a row that matches every pin; and the partition owns every
// such row.
func checkPlace(t *testing.T, s *Schema, pins []Pin, rows []Row) {
	t.Helper()
	const parts = 3
	p := s.Place(pins)
	if (p.From == nil) != (len(p.Key) == 0) || (p.To == nil) != (p.From == nil) {
		t.Fatalf("Key %v with range [%x, %x)", p.Key, p.From, p.To)
	}
	// The path order: a full unique key, then the first fully pinned
	// buffer-indexed secondary key, then the unique-key prefix.
	counts := func(c int) bool {
		for _, pin := range pins {
			if pin.Col == c && !pin.Val.IsNull && pin.Val.Type == s.Columns[c].Type {
				return true
			}
		}
		return false
	}
	all := func(cols []int) bool {
		for _, c := range cols {
			if !counts(c) {
				return false
			}
		}
		return true
	}
	wantIndex := -1
	if len(s.UniqueKey) == 0 || !all(s.UniqueKey) {
		for i, key := range s.SecondaryKeys {
			if s.bufferIndexed(key) && all(key) {
				wantIndex = i
				break
			}
		}
	}
	gotIndex := -1
	if len(p.Secondary) > 0 {
		gotIndex = p.Index
	}
	if gotIndex != wantIndex {
		t.Fatalf("pins %v on keys %v / unique %v: secondary index %d, want %d", pins, s.SecondaryKeys, s.UniqueKey, gotIndex, wantIndex)
	}
	if wantIndex >= 0 && (len(p.Key) > 0 || len(p.Secondary) != len(s.SecondaryKeys[wantIndex])) {
		t.Fatalf("secondary seek %v beside unique prefix %v", p.Secondary, p.Key)
	}
	for _, r := range rows {
		matches := true
		for _, pin := range pins {
			if !eqMatch(r[pin.Col], pin.Val) {
				matches = false
			}
		}
		k := KeyOf(r, s.UniqueKey)
		inRange := p.From == nil || (bytes.Compare(k, p.From) >= 0 && bytes.Compare(k, p.To) < 0)
		if matches && !inRange {
			t.Fatalf("row %v matches pins %v but key %x is outside [%x, %x)", r, pins, k, p.From, p.To)
		}
		hasPrefix := true
		for i, v := range p.Key {
			if !bytes.Equal(EncodeKey(nil, r[s.UniqueKey[i]]), EncodeKey(nil, v)) {
				hasPrefix = false
			}
		}
		if inRange != hasPrefix {
			t.Fatalf("row %v: in range %v, has prefix %v of %v", r, inRange, hasPrefix, p.Key)
		}
		if len(p.Secondary) > 0 {
			cols := s.SecondaryKeys[p.Index]
			if matches && !bytes.Equal(KeyOf(r, cols), EncodeKey(nil, p.Secondary...)) {
				t.Fatalf("row %v matches pins %v but its key %v is not the seeked %v", r, pins, r.Project(cols), p.Secondary)
			}
		}
		if pi, ok := p.Partition(parts); ok && matches && int(s.ShardHash(r)%parts) != pi {
			t.Fatalf("row %v matches pins %v but routes to %d, not %d", r, pins, s.ShardHash(r)%parts, pi)
		}
	}
}

func TestPlaceEdges(t *testing.T) {
	s := NewSchema(
		Column{Name: "a", Type: Int64},
		Column{Name: "b", Type: String},
		Column{Name: "f", Type: Float64},
	)
	s.UniqueKey = []int{0, 1}
	s.ShardKey = []int{0}
	cases := []struct {
		name    string
		pins    []Pin
		keyCols int
		routed  bool
	}{
		{"no pins", nil, 0, false},
		{"leading column", []Pin{{0, NewInt(-3)}}, 1, true},
		{"full key", []Pin{{1, NewString("x\x00")}, {0, NewInt(7)}}, 2, true},
		{"second column only", []Pin{{1, NewString("x")}}, 0, false},
		{"NULL literal", []Pin{{0, Null(Int64)}}, 0, false},
		{"mistyped literal", []Pin{{0, NewString("7")}}, 0, false},
		{"first usable pin wins", []Pin{{0, Null(Int64)}, {0, NewInt(1)}}, 1, true},
		{"float column", []Pin{{2, NewFloat(1.5)}, {0, NewInt(1)}}, 1, true},
	}
	for _, c := range cases {
		p := s.Place(c.pins)
		if len(p.Key) != c.keyCols {
			t.Errorf("%s: Key = %v, want %d columns", c.name, p.Key, c.keyCols)
		}
		if _, ok := p.Partition(4); ok != c.routed {
			t.Errorf("%s: routed = %v, want %v", c.name, ok, c.routed)
		}
	}

	// Secondary keys: {f} is indexed in the buffer; {a} is a unique-key
	// prefix and {f, b, a} holds the whole unique key, so the unique order
	// answers both.
	s.SecondaryKeys = [][]int{{0}, {2, 1, 0}, {2}}
	if got := s.BufferIndexes(); got[0] != nil || got[1] != nil || len(got[2]) != 1 {
		t.Errorf("BufferIndexes = %v", got)
	}
	for _, c := range []struct {
		name      string
		pins      []Pin
		keyCols   int
		secondary bool
	}{
		{"secondary only", []Pin{{2, NewFloat(1.5)}}, 0, true},
		{"secondary beats a prefix", []Pin{{0, NewInt(1)}, {2, NewFloat(1.5)}}, 0, true},
		{"full unique key beats a secondary", []Pin{{0, NewInt(1)}, {1, NewString("x")}, {2, NewFloat(1.5)}}, 2, false},
		{"prefix", []Pin{{0, NewInt(1)}}, 1, false},
		{"NULL secondary literal", []Pin{{2, Null(Float64)}, {0, NewInt(1)}}, 1, false},
	} {
		p := s.Place(c.pins)
		if len(p.Key) != c.keyCols || (len(p.Secondary) > 0) != c.secondary || (c.secondary && p.Index != 2) {
			t.Errorf("%s: Key = %v, Secondary = %v (index %d)", c.name, p.Key, p.Secondary, p.Index)
		}
	}
	s.SecondaryKeys = nil

	// A float shard and key column pins like any other: -0.0 and 0.0 share
	// one key and one partition, and NaN matches no row.
	fs := NewSchema(Column{Name: "f", Type: Float64})
	fs.UniqueKey = []int{0}
	rows := []Row{{NewFloat(0)}, {NewFloat(math.Copysign(0, -1))}, {NewFloat(math.NaN())}, {NewFloat(2)}}
	for _, v := range []Value{NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(2), NewFloat(math.NaN())} {
		p := fs.Place([]Pin{{0, v}})
		if _, ok := p.Partition(4); len(p.Key) != 1 || !ok {
			t.Errorf("float pin %v: Key = %v, routed = %v", v, p.Key, ok)
		}
		checkPlace(t, fs, []Pin{{0, v}}, rows)
	}
}

// FuzzKeyRange checks Place on random 1–3-column key schemas with up to
// two secondary keys, pins and rows: seeking the key range or the
// secondary key and walking every row agree on which rows match, and the
// derived partition owns them all.
func FuzzKeyRange(f *testing.F) {
	f.Add([]byte{2, 1, 0, 3, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{3, 0, 1, 2, 7, 2, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7})
	f.Add([]byte{1, 2, 6, 4, 1, 9, 3, 3, 3, 3})
	f.Add([]byte{2, 0, 1, 0, 1, 1, 1, 3, 2, 1, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 3, 2, 1, 1, 2, 0, 0, 1})
	f.Add([]byte{1, 2, 0, 1, 2, 1, 1, 1, 6, 4, 0, 1, 2, 3, 4, 5, 6, 2, 1, 4, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() int {
			if pos >= len(data) {
				return 0
			}
			pos++
			return int(data[pos-1])
		}
		ints := []int64{math.MinInt64, -2, -1, 0, 1, 2, math.MaxInt64}
		strs := []string{"", "a", "a\x00", "a\x00b", "\x00", "b", "\xff", "a\x00\x01"}
		floats := []float64{0, math.Copysign(0, -1), 1.5, -1, math.NaN()}
		value := func(t ColType) Value {
			b := next()
			if b%11 == 10 {
				return Null(t)
			}
			switch t {
			case Int64:
				return NewInt(ints[b%len(ints)])
			case String:
				return NewString(strs[b%len(strs)])
			}
			return NewFloat(floats[b%len(floats)])
		}
		// Key columns first, then one non-key Int64 column.
		nkey := 1 + next()%3
		cols := make([]Column, nkey+1)
		for i := 0; i < nkey; i++ {
			cols[i] = Column{Name: string(rune('a' + i)), Type: ColType(next() % 3)}
		}
		cols[nkey] = Column{Name: "v", Type: Int64}
		s := NewSchema(cols...)
		s.UniqueKey = make([]int, nkey)
		for i := range s.UniqueKey {
			s.UniqueKey[i] = i
		}
		if next()%2 == 1 { // key order differs from column order
			for i, j := 0, nkey-1; i < j; i, j = i+1, j-1 {
				s.UniqueKey[i], s.UniqueKey[j] = s.UniqueKey[j], s.UniqueKey[i]
			}
		}
		for c := 0; c <= nkey; c++ {
			if next()%2 == 1 {
				s.ShardKey = append(s.ShardKey, c)
			}
		}
		// Secondary keys of one or two columns, any of them: some are a
		// unique-key prefix or hold the whole unique key, which the buffer
		// does not index.
		for i := next() % 3; i > 0; i-- {
			key := []int{next() % len(cols)}
			if next()%2 == 1 {
				key = append(key, next()%len(cols))
			}
			s.SecondaryKeys = append(s.SecondaryKeys, key)
		}
		rows := make([]Row, next()%24)
		for i := range rows {
			rows[i] = make(Row, len(cols))
			for c, col := range cols {
				rows[i][c] = value(col.Type)
			}
		}
		pins := make([]Pin, next()%4)
		for i := range pins {
			c := next() % len(cols)
			typ := cols[c].Type
			if next()%5 == 4 { // a literal of another type
				typ = ColType((int(typ) + 1) % 3)
			}
			pins[i] = Pin{Col: c, Val: value(typ)}
		}
		checkPlace(t, s, pins, rows)
	})
}
