// Package baseline implements the comparison systems of §6: a
// rowstore-only cloud operational database ("CDB", Aurora-class) and a
// blob-commit cloud data warehouse ("CDW", Snowflake/Redshift-class). Both
// are honest engines, not stubs: CDB runs TPC-C at full speed but executes
// analytics row-at-a-time with no columnar layout; CDW shares the
// columnstore execution path but must write to blob storage to commit and
// has no secondary indexes, unique keys or row locks — exactly the design
// simplifications §6 attributes to each class of system.
package baseline

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"s2db/internal/rowstore"
	"s2db/internal/types"
)

// ErrUnsupported marks operations a baseline cannot run (e.g. TPC-C on the
// warehouse: "CDW1 and CDW2 do not support running TPC-C", §6).
var ErrUnsupported = errors.New("baseline: operation not supported by this engine")

// RowTable is one rowstore table of the CDB baseline: a primary skiplist
// and one auxiliary skiplist per secondary index (the external-index
// design of §4.1's related work).
type RowTable struct {
	schema  *types.Schema
	primary *rowstore.Store
	// secondary maps index ordinal-list key to a skiplist whose keys are
	// EncodeKey(secondary values..., primary key values...).
	secondary map[string]*rowstore.Store
	clock     atomic.Uint64 // the last commit timestamp
	mu        sync.Mutex    // serializes commits (single-host engine)
}

// RowDB is the rowstore-only operational database baseline.
type RowDB struct {
	mu     sync.RWMutex
	tables map[string]*RowTable
}

// NewRowDB returns an empty operational database.
func NewRowDB() *RowDB { return &RowDB{tables: make(map[string]*RowTable)} }

// CreateTable creates a rowstore table. The schema must have a unique key
// (the primary key of an operational table).
func (db *RowDB) CreateTable(name string, schema *types.Schema) error {
	if err := schema.Validate(); err != nil {
		return err
	}
	if len(schema.UniqueKey) == 0 {
		return fmt.Errorf("rowdb: table %s needs a primary (unique) key", name)
	}
	t := &RowTable{
		schema:    schema,
		primary:   rowstore.NewStore(2 * time.Second),
		secondary: make(map[string]*rowstore.Store),
	}
	for _, key := range schema.SecondaryKeys {
		t.secondary[fmt.Sprint(key)] = rowstore.NewStore(2 * time.Second)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[name]; dup {
		return fmt.Errorf("rowdb: table %s exists", name)
	}
	db.tables[name] = t
	return nil
}

// Table returns the named table.
func (db *RowDB) Table(name string) (*RowTable, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("rowdb: no table %s", name)
	}
	return t, nil
}

func (t *RowTable) pk(r types.Row) []byte { return types.KeyOf(r, t.schema.UniqueKey) }

func (t *RowTable) secKey(key []int, r types.Row) []byte {
	vals := make([]types.Value, 0, len(key)+len(t.schema.UniqueKey))
	for _, c := range key {
		vals = append(vals, r[c])
	}
	for _, c := range t.schema.UniqueKey {
		vals = append(vals, r[c])
	}
	return types.EncodeKey(nil, vals...)
}

// Insert adds a row, failing on duplicate primary key.
func (t *RowTable) Insert(r types.Row) error {
	if err := t.schema.CheckRow(r); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	readTS := t.clock.Load()
	if _, exists := t.primary.Get(t.pk(r), readTS); exists {
		return fmt.Errorf("rowdb: duplicate primary key")
	}
	tx := t.primary.Begin(readTS)
	if _, err := tx.Insert(t.pk(r), r); err != nil {
		tx.Abort()
		return err
	}
	secTxs := make([]*rowstore.Txn, 0, len(t.secondary))
	for keyStr, store := range t.secondary {
		stx := store.Begin(readTS)
		key := parseOrdinals(keyStr)
		if _, err := stx.Insert(t.secKey(key, r), types.Row{}); err != nil {
			stx.Abort()
			for _, s := range secTxs {
				s.Abort()
			}
			tx.Abort()
			return err
		}
		secTxs = append(secTxs, stx)
	}
	ts := t.clock.Add(1)
	tx.Commit(ts)
	for _, s := range secTxs {
		s.Commit(ts)
	}
	return nil
}

// parseOrdinals reverses fmt.Sprint([]int{...}).
func parseOrdinals(s string) []int {
	var out []int
	n, in := 0, false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= '0' && c <= '9' {
			n = n*10 + int(c-'0')
			in = true
		} else if in {
			out = append(out, n)
			n, in = 0, false
		}
	}
	if in {
		out = append(out, n)
	}
	return out
}

// Get returns the row with the given primary key values.
func (t *RowTable) Get(vals []types.Value) (types.Row, bool) {
	return t.primary.Get(types.EncodeKey(nil, vals...), t.clock.Load())
}

// Update rewrites the row with the given primary key via set, maintaining
// secondary indexes.
func (t *RowTable) Update(vals []types.Value, set func(types.Row) types.Row) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	readTS := t.clock.Load()
	key := types.EncodeKey(nil, vals...)
	old, ok := t.primary.Get(key, readTS)
	if !ok {
		return false, nil
	}
	nr := set(old.Clone())
	if err := t.schema.CheckRow(nr); err != nil {
		return false, err
	}
	tx := t.primary.Begin(readTS)
	if _, err := tx.Insert(key, nr); err != nil {
		tx.Abort()
		return false, err
	}
	var secTxs []*rowstore.Txn
	for keyStr, store := range t.secondary {
		k := parseOrdinals(keyStr)
		oldSec, newSec := t.secKey(k, old), t.secKey(k, nr)
		if string(oldSec) == string(newSec) {
			continue
		}
		stx := store.Begin(readTS)
		if _, err := stx.Delete(oldSec); err == nil {
			_, err = stx.Insert(newSec, types.Row{})
			if err == nil {
				secTxs = append(secTxs, stx)
				continue
			}
		}
		stx.Abort()
		for _, s := range secTxs {
			s.Abort()
		}
		tx.Abort()
		return false, fmt.Errorf("rowdb: secondary index maintenance failed")
	}
	ts := t.clock.Add(1)
	tx.Commit(ts)
	for _, s := range secTxs {
		s.Commit(ts)
	}
	return true, nil
}

// Delete removes the row with the given primary key.
func (t *RowTable) Delete(vals []types.Value) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	readTS := t.clock.Load()
	key := types.EncodeKey(nil, vals...)
	old, ok := t.primary.Get(key, readTS)
	if !ok {
		return false, nil
	}
	tx := t.primary.Begin(readTS)
	if _, err := tx.Delete(key); err != nil {
		tx.Abort()
		return false, err
	}
	var secTxs []*rowstore.Txn
	for keyStr, store := range t.secondary {
		stx := store.Begin(readTS)
		stx.Delete(t.secKey(parseOrdinals(keyStr), old))
		secTxs = append(secTxs, stx)
	}
	ts := t.clock.Add(1)
	tx.Commit(ts)
	for _, s := range secTxs {
		s.Commit(ts)
	}
	return true, nil
}

// LookupEqual returns rows where the secondary-indexed columns equal vals,
// via an index range scan followed by primary-key lookups (the external
// index indirection §4.1 contrasts with).
func (t *RowTable) LookupEqual(key []int, vals []types.Value) []types.Row {
	store, ok := t.secondary[fmt.Sprint(key)]
	if !ok {
		// Fall back to a full scan.
		var out []types.Row
		t.Scan(func(r types.Row) bool {
			match := true
			for i, c := range key {
				if !types.Equal(r[c], vals[i]) {
					match = false
					break
				}
			}
			if match {
				out = append(out, r)
			}
			return true
		})
		return out
	}
	prefix := types.EncodeKey(nil, vals...)
	end := append(append([]byte(nil), prefix...), 0xff, 0xff, 0xff, 0xff)
	readTS := t.clock.Load()
	var out []types.Row
	store.Scan(prefix, end, readTS, func(k []byte, _ types.Row) bool {
		// The primary key values trail the secondary values in the index
		// key; rather than decode, do the indirection through the primary
		// store using the tail bytes.
		pkBytes := k[len(prefix):]
		if r, ok := t.primary.Get(pkBytes, readTS); ok {
			out = append(out, r)
		}
		return true
	})
	return out
}

// Scan iterates every row, one at a time — the row-oriented execution that
// makes CDB "orders of magnitude worse" on analytics (§6).
func (t *RowTable) Scan(f func(types.Row) bool) {
	t.primary.Scan(nil, nil, t.clock.Load(), func(_ []byte, r types.Row) bool { return f(r) })
}

// Rows returns the live row count.
func (t *RowTable) Rows() int { return t.primary.Len() }

// LookupPrefix returns rows whose primary key begins with the given values
// (an index range scan on the clustered primary key).
func (t *RowTable) LookupPrefix(vals []types.Value) []types.Row {
	prefix := types.EncodeKey(nil, vals...)
	end := append(append([]byte(nil), prefix...), 0xff, 0xff, 0xff, 0xff)
	var out []types.Row
	t.primary.Scan(prefix, end, t.clock.Load(), func(_ []byte, r types.Row) bool {
		out = append(out, r)
		return true
	})
	return out
}
