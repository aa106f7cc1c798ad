package tpcc

import (
	"sync/atomic"

	"s2db/internal/baseline"
	"s2db/internal/cluster"
	"s2db/internal/core"
	"s2db/internal/exec"
	"s2db/internal/types"
	"s2db/internal/vector"
)

// S2Backend drives a S2DB cluster through its unified table storage.
type S2Backend struct {
	C *cluster.Cluster
}

// Name implements Backend.
func (b *S2Backend) Name() string { return "s2db" }

// CreateTables implements Backend.
func (b *S2Backend) CreateTables() error {
	for name, schema := range Schemas() {
		if err := b.C.CreateTable(name, schema); err != nil {
			return err
		}
	}
	return nil
}

// Load implements Backend via the bulk columnstore path.
func (b *S2Backend) Load(table string, rows []types.Row) error {
	if len(rows) == 0 {
		return nil
	}
	return b.C.BulkLoad(table, rows)
}

// Insert implements Backend.
func (b *S2Backend) Insert(table string, row types.Row) error {
	_, err := b.C.Insert(table, []types.Row{row}, core.InsertOptions{})
	return err
}

// Get implements Backend.
func (b *S2Backend) Get(table string, key []types.Value) (types.Row, bool, error) {
	return b.C.GetByUnique(table, key)
}

// Update implements Backend.
func (b *S2Backend) Update(table string, key []types.Value, set func(types.Row) types.Row) (bool, error) {
	return b.C.UpdateByUnique(table, key, set)
}

// Delete implements Backend.
func (b *S2Backend) Delete(table string, key []types.Value) (bool, error) {
	return b.C.DeleteByUnique(table, key)
}

// ScanEq implements Backend with an adaptive index scan per partition.
// When the probed columns pin every shard column only the owning partition
// is scanned, and when they pin a unique-key prefix the scan's buffer side
// seeks that key range instead of walking the whole write buffer.
func (b *S2Backend) ScanEq(table string, cols []int, vals []types.Value, emit func(types.Row) bool) error {
	clauses := make([]exec.Node, len(cols))
	for i, c := range cols {
		clauses[i] = exec.NewLeaf(c, vector.Eq, vals[i])
	}
	var filter exec.Node
	if len(clauses) == 1 {
		filter = clauses[0]
	} else {
		filter = exec.NewAnd(clauses...)
	}
	views, err := b.C.PinnedViews(table, exec.Pins(filter))
	if err != nil {
		return err
	}
	defer core.ReleaseAll(views)
	for _, v := range views {
		stop := false
		exec.NewScan(v, filter).Run(func(r types.Row) bool {
			if !emit(r) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return nil
		}
	}
	return nil
}

// RowDBBackend drives the CDB rowstore baseline.
type RowDBBackend struct {
	DB *baseline.RowDB
	// seq allocates synthetic primary keys for keyless tables (history).
	seq atomic.Int64
}

// Name implements Backend.
func (b *RowDBBackend) Name() string { return "cdb-rowstore" }

// CreateTables implements Backend. History gets a synthetic primary key
// because the rowstore engine requires one.
func (b *RowDBBackend) CreateTables() error {
	for name, schema := range Schemas() {
		s := *schema
		if len(s.UniqueKey) == 0 {
			// Append a hidden sequence column as the primary key.
			s.Columns = append(append([]types.Column{}, s.Columns...), types.Column{Name: "_seq", Type: types.Int64})
			s.UniqueKey = []int{len(s.Columns) - 1}
		}
		if err := b.DB.CreateTable(name, &s); err != nil {
			return err
		}
	}
	return nil
}

func (b *RowDBBackend) padRow(table string, row types.Row) types.Row {
	if len(Schemas()[table].UniqueKey) == 0 {
		row = append(row.Clone(), types.NewInt(b.seq.Add(1)))
	}
	return row
}

// Load implements Backend.
func (b *RowDBBackend) Load(table string, rows []types.Row) error {
	for _, r := range rows {
		if err := b.Insert(table, r); err != nil {
			return err
		}
	}
	return nil
}

// Insert implements Backend.
func (b *RowDBBackend) Insert(table string, row types.Row) error {
	t, err := b.DB.Table(table)
	if err != nil {
		return err
	}
	return t.Insert(b.padRow(table, row))
}

// Get implements Backend.
func (b *RowDBBackend) Get(table string, key []types.Value) (types.Row, bool, error) {
	t, err := b.DB.Table(table)
	if err != nil {
		return nil, false, err
	}
	r, ok := t.Get(key)
	return r, ok, nil
}

// Update implements Backend.
func (b *RowDBBackend) Update(table string, key []types.Value, set func(types.Row) types.Row) (bool, error) {
	t, err := b.DB.Table(table)
	if err != nil {
		return false, err
	}
	return t.Update(key, set)
}

// Delete implements Backend.
func (b *RowDBBackend) Delete(table string, key []types.Value) (bool, error) {
	t, err := b.DB.Table(table)
	if err != nil {
		return false, err
	}
	return t.Delete(key)
}

// ScanEq implements Backend: an index range scan when the columns match a
// secondary index or unique-key prefix, otherwise a full row-at-a-time scan.
func (b *RowDBBackend) ScanEq(table string, cols []int, vals []types.Value, emit func(types.Row) bool) error {
	t, err := b.DB.Table(table)
	if err != nil {
		return err
	}
	schema := Schemas()[table]
	// Exact secondary-index match?
	for _, key := range schema.SecondaryKeys {
		if equalOrdinals(key, cols) {
			for _, r := range t.LookupEqual(key, vals) {
				if !emit(r) {
					return nil
				}
			}
			return nil
		}
	}
	// Unique-key prefix scan?
	if len(schema.UniqueKey) > 0 && isPrefix(schema.UniqueKey, cols) {
		for _, r := range t.LookupPrefix(vals) {
			if !emit(r) {
				return nil
			}
		}
		return nil
	}
	t.Scan(func(r types.Row) bool {
		for i, c := range cols {
			if !types.Equal(r[c], vals[i]) {
				return true
			}
		}
		return emit(r)
	})
	return nil
}

func equalOrdinals(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func isPrefix(key, cols []int) bool {
	if len(cols) > len(key) {
		return false
	}
	for i := range cols {
		if key[i] != cols[i] {
			return false
		}
	}
	return true
}
