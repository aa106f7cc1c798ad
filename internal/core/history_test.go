package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"s2db/internal/types"
)

// rowCounts is the live row multiset of tbl at its latest snapshot,
// rendered one string per row.
func rowCounts(t *testing.T, tbl *Table) map[string]int {
	t.Helper()
	out := map[string]int{}
	view := tbl.Snapshot()
	defer view.Release()
	view.ScanBuffer(func(r types.Row) bool { out[fmt.Sprint(r)]++; return true })
	for _, m := range view.Segs {
		for i := 0; i < m.Seg.NumRows; i++ {
			if !m.Deleted.Get(i) {
				out[fmt.Sprint(m.Seg.RowAt(i))]++
			}
		}
	}
	return out
}

// FuzzWriteHistory runs a random history of the five writers (InsertBatch
// under every duplicate policy, UpdateWhere, DeleteWhere, UpdateByUnique,
// DeleteByUnique), flushes and merges against a unique-key table and a
// hidden-row-id table. After every step each table must hold what its map
// model holds; at the end a shadow replayed from each table's log must
// equal the table. Every two bytes are one step: the operation, and the
// argument that picks its row, value and predicate.
func FuzzWriteHistory(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 160)
		rng.Read(data)
		f.Add(data)
	}
	f.Add([]byte{0, 3, 5, 0, 3, 3, 1, 3, 0, 19, 5, 0, 6, 0, 4, 3, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 400 {
			data = data[:400]
		}
		schema := uniqSchema()
		schema.SortKey = 0
		cfg := Config{MaxSegmentRows: 4, MergeFanout: 2}
		uk, ukLog := newTestTable(t, schema, cfg)
		hid, hidLog := newTestTable(t, plainSchema(), cfg)
		ukRows := map[int64]types.Row{}
		var hidRows []types.Row
		tags := []string{"a", "b", "c"}
		bump := func(r types.Row) types.Row { r[1] = types.NewInt(r[1].I + 1); return r }
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%7, int64(data[i+1])
			id, tag := arg%16, tags[arg%3]
			// ukWhere matches on the indexed tag column or on id modulo 4;
			// hidWhere on the first column.
			ukWhere := Eq(2, types.NewString(tag))
			if arg&16 != 0 {
				ukWhere = Where{Col: -1, Pred: func(r types.Row) bool { return r[0].I%4 == id%4 }}
			}
			hidWhere := Where{Col: -1, Pred: func(r types.Row) bool { return r[0].I == id%4 }}
			step := fmt.Sprintf("step %d (op %d, arg %d)", i/2, op, arg)
			switch op {
			case 0: // InsertBatch under the policy arg picks
				policy := DupPolicy(arg >> 5 % 4)
				res, err := uk.InsertBatch([]types.Row{urow(int(id), int(arg), tag)}, InsertOptions{
					OnDup:  policy,
					Update: func(old, _ types.Row) types.Row { return bump(old.Clone()) },
				})
				old, exists := ukRows[id]
				switch {
				case !exists:
					ukRows[id] = urow(int(id), int(arg), tag)
				case policy == DupError:
					if !errors.Is(err, ErrDuplicateKey) {
						t.Fatalf("%s: duplicate insert = %v", step, err)
					}
					err = nil
				case policy == DupReplace:
					ukRows[id] = urow(int(id), int(arg), tag)
				case policy == DupUpdate:
					ukRows[id] = bump(old.Clone())
				}
				if err != nil {
					t.Fatalf("%s: insert: %v (%+v)", step, err, res)
				}
				r := types.Row{types.NewInt(id % 4), types.NewInt(arg)}
				if err := hid.Insert(r); err != nil {
					t.Fatalf("%s: hidden insert: %v", step, err)
				}
				hidRows = append(hidRows, r)
			case 1: // UpdateByUnique
				ok, err := uk.UpdateByUnique([]types.Value{types.NewInt(id)}, bump)
				old, exists := ukRows[id]
				if err != nil || ok != exists {
					t.Fatalf("%s: UpdateByUnique = %v, %v; row exists %v", step, ok, err, exists)
				}
				if exists {
					ukRows[id] = bump(old.Clone())
				}
				if _, err := hid.UpdateByUnique([]types.Value{types.NewInt(id)}, bump); !errors.Is(err, ErrNoUniqueKey) {
					t.Fatalf("%s: hidden UpdateByUnique = %v", step, err)
				}
			case 2: // DeleteByUnique
				ok, err := uk.DeleteByUnique([]types.Value{types.NewInt(id)})
				_, exists := ukRows[id]
				if err != nil || ok != exists {
					t.Fatalf("%s: DeleteByUnique = %v, %v; row exists %v", step, ok, err, exists)
				}
				delete(ukRows, id)
			case 3: // UpdateWhere
				want := 0
				for k, r := range ukRows {
					if ukWhere.matches(r) {
						ukRows[k] = bump(r.Clone())
						want++
					}
				}
				if n, err := uk.UpdateWhere(ukWhere, bump); err != nil || n != want {
					t.Fatalf("%s: UpdateWhere = %d, %v; want %d", step, n, err, want)
				}
				want = 0
				for k, r := range hidRows {
					if hidWhere.matches(r) {
						hidRows[k] = bump(r.Clone())
						want++
					}
				}
				if n, err := hid.UpdateWhere(hidWhere, bump); err != nil || n != want {
					t.Fatalf("%s: hidden UpdateWhere = %d, %v; want %d", step, n, err, want)
				}
			case 4: // DeleteWhere
				want := 0
				for k, r := range ukRows {
					if ukWhere.matches(r) {
						delete(ukRows, k)
						want++
					}
				}
				if n, err := uk.DeleteWhere(ukWhere); err != nil || n != want {
					t.Fatalf("%s: DeleteWhere = %d, %v; want %d", step, n, err, want)
				}
				kept := hidRows[:0]
				for _, r := range hidRows {
					if !hidWhere.matches(r) {
						kept = append(kept, r)
					}
				}
				want, hidRows = len(hidRows)-len(kept), kept
				if n, err := hid.DeleteWhere(hidWhere); err != nil || n != want {
					t.Fatalf("%s: hidden DeleteWhere = %d, %v; want %d", step, n, err, want)
				}
			case 5:
				for _, tbl := range []*Table{uk, hid} {
					if _, err := tbl.Flush(); err != nil {
						t.Fatalf("%s: flush: %v", step, err)
					}
				}
			case 6:
				uk.Merge()
				hid.Merge()
			}
			ukWant := map[string]int{}
			for _, r := range ukRows {
				ukWant[fmt.Sprint(r)]++
			}
			hidWant := map[string]int{}
			for _, r := range hidRows {
				hidWant[fmt.Sprint(r)]++
			}
			if got := rowCounts(t, uk); fmt.Sprint(got) != fmt.Sprint(ukWant) {
				t.Fatalf("%s: unique-key table holds %v, model %v", step, got, ukWant)
			}
			if got := rowCounts(t, hid); fmt.Sprint(got) != fmt.Sprint(hidWant) {
				t.Fatalf("%s: hidden-row-id table holds %v, model %v", step, got, hidWant)
			}
		}
		assertShadowEqual(t, uk, ukLog, nil)
		assertShadowEqual(t, hid, hidLog, nil)
	})
}
