package core

import (
	"cmp"
	"slices"
	"sync"

	"s2db/internal/rowstore"
)

// readers is a table's reader registry: the timestamps that open views
// and write statements read at, with a count each, in ascending order. It
// holds counts, never views, so a view dropped without Release can still
// be collected (its finalizer releases it).
//
// Compaction reclaims at horizon: the oldest registered timestamp, or the
// published one when no reader is older. It records what it used as
// keepTS. A reader registers under the same lock, either at the published
// timestamp, read there (pinLatest), or at a timestamp it checks there
// against keepTS (pin). So no compaction can pass a timestamp between the
// moment a reader picks it and the moment it is registered, and no reader
// reads below a horizon a compaction used (DESIGN.md §6).
type readers struct {
	mu     sync.Mutex
	open   []openTS
	keepTS uint64
}

type openTS struct {
	ts uint64
	n  int
}

// pinLatest registers a reader at the timestamp c publishes and returns
// it. The published timestamp never falls below keepTS: a compaction picks
// keepTS no newer than it, and it only grows.
func (r *readers) pinLatest(c *Committer) uint64 {
	r.mu.Lock()
	ts := c.ReadTS()
	r.add(ts)
	r.mu.Unlock()
	return ts
}

// pin registers a reader at ts, or reports false when a compaction has
// already reclaimed versions a reader at ts would need.
func (r *readers) pin(ts uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ts < r.keepTS {
		return false
	}
	r.add(ts)
	return true
}

// add counts one more reader at ts. The published timestamp only grows,
// so ts is almost always the newest entry or a new last one.
func (r *readers) add(ts uint64) {
	i := len(r.open)
	for i > 0 && r.open[i-1].ts > ts {
		i--
	}
	if i > 0 && r.open[i-1].ts == ts {
		r.open[i-1].n++
		return
	}
	r.open = slices.Insert(r.open, i, openTS{ts: ts, n: 1})
}

// unpin unregisters one reader at ts.
func (r *readers) unpin(ts uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := slices.BinarySearchFunc(r.open, ts, func(e openTS, ts uint64) int { return cmp.Compare(e.ts, ts) })
	if !ok {
		panic("core: release of a reader that is not registered")
	}
	if r.open[i].n--; r.open[i].n == 0 {
		r.open = slices.Delete(r.open, i, i+1)
	}
}

// horizon returns the timestamp a compaction may reclaim at, min(oldest
// registered reader, published timestamp), and records it as keepTS.
func (r *readers) horizon(c *Committer) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	keep := c.ReadTS()
	if len(r.open) > 0 && r.open[0].ts < keep {
		keep = r.open[0].ts
	}
	r.keepTS = max(r.keepTS, keep)
	return keep
}

// pinLatest registers a reader at the published timestamp and returns it;
// the reader unpins it when it has finished reading.
func (t *Table) pinLatest() uint64 { return t.readers.pinLatest(t.committer) }

// beginWrite begins a write statement's rowstore transaction at the
// published timestamp, registered as a reader until the statement calls
// done: the transaction reads buffer versions at that timestamp.
func (t *Table) beginWrite() (tx *rowstore.Txn, done func()) {
	ts := t.pinLatest()
	return t.buffer.Begin(ts), func() { t.unpin(ts) }
}

// unpin unregisters a timestamp pinLatest returned.
func (t *Table) unpin(ts uint64) { t.readers.unpin(ts) }
