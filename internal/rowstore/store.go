package rowstore

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"s2db/internal/types"
)

// Txn states.
const (
	txnActive int32 = iota
	txnCommitted
	txnAborted
)

// ErrLockTimeout is returned when a row lock cannot be acquired before the
// store's lock timeout; callers should abort and retry the transaction
// (this is also how deadlocks resolve).
var ErrLockTimeout = errors.New("rowstore: row lock wait timed out")

// ErrTxnDone is returned when writing through a finished transaction.
var ErrTxnDone = errors.New("rowstore: transaction already committed or aborted")

// Store is an MVCC in-memory rowstore over a lock-free skiplist. Readers
// run at a snapshot timestamp and never block; writers take per-row locks
// (pessimistic concurrency control, §2.1.1).
type Store struct {
	// gate is almost always held shared; Compact takes it exclusively to
	// rebuild the skiplist without tombstoned nodes (the flusher deletes
	// whole batches, and scans must not pay for the corpses forever).
	gate        sync.RWMutex
	list        *skiplist
	nextTxnID   atomic.Uint64
	live        atomic.Int64
	lockTimeout time.Duration
	// indexes are the in-buffer secondary indexes (secondary.go), one per
	// NewStore argument; nil entries keep no index.
	indexes []*secondary
	// journal lists the keys commits wrote while a reader keeps a columnar
	// image of the buffer, and holds that image (journal.go).
	journal journal
}

// Compact physically removes nodes whose newest version is a committed
// tombstone at or before keepTS (and is not locked by an active writer).
// The caller must guarantee that no snapshot older than keepTS will be
// read afterwards. In core, the table's reader registry guarantees it
// (core/readers.go): keepTS is the oldest timestamp a view or a write
// statement has registered, or the published one when none is older, and
// no reader registers below a keepTS once used. It returns the number of
// nodes dropped.
func (s *Store) Compact(keepTS uint64) (removed int) {
	s.gate.Lock()
	defer s.gate.Unlock()
	var survivors []*node
	for n := s.list.head.tower[0].Load(); n != nil; n = n.tower[0].Load() {
		keep := false
		n.mu.Lock()
		if n.owner != nil { // locked (possibly mid-commit): must survive
			keep = true
		}
		n.mu.Unlock()
		if !keep {
			switch v := n.versions.Load(); {
			case v == nil:
				// never written: drop
			case v.txn.Load() != nil:
				keep = true // uncommitted head version
			case v.data != nil:
				keep = true // live row
			case v.ts.Load() > keepTS:
				keep = true // tombstone still visible to recent snapshots
			}
		}
		if keep {
			// Trim version history below keepTS: find the newest version
			// visible at keepTS and drop everything older.
			for v := n.versions.Load(); v != nil; v = v.next {
				if v.txn.Load() == nil && v.ts.Load() <= keepTS {
					v.next = nil
					break
				}
			}
			survivors = append(survivors, n)
		} else {
			removed++
		}
	}
	if removed == 0 {
		// Chains were still trimmed above.
		if s.bloated(len(survivors)) {
			s.reindex(survivors)
		}
		return 0
	}
	// Rebuild the list from the surviving node objects (they keep their
	// identity: row locks and version chains stay valid). Survivors arrive
	// in key order, so link at per-level tails.
	fresh := newSkiplist()
	var tails [maxHeight]*node
	for i := range tails {
		tails[i] = fresh.head
	}
	for _, n := range survivors {
		h := fresh.randomHeight()
		for l := 0; l < maxHeight; l++ {
			n.tower[l].Store(nil)
		}
		for l := 0; l < h; l++ {
			tails[l].tower[l].Store(n)
			tails[l] = n
		}
		for {
			cur := fresh.height.Load()
			if int(cur) >= h || fresh.height.CompareAndSwap(cur, int32(h)) {
				break
			}
		}
	}
	fresh.length.Store(int64(len(survivors)))
	s.list = fresh
	s.reindex(survivors)
	return removed
}

// NewStore returns an empty store. lockTimeout bounds row-lock waits;
// zero means a 2s default. Each of indexes lists the row columns of one
// in-buffer secondary index, which Placement.Index numbers from zero; a nil
// entry keeps none (see types.Schema.BufferIndexes).
func NewStore(lockTimeout time.Duration, indexes ...[]int) *Store {
	if lockTimeout == 0 {
		lockTimeout = 2 * time.Second
	}
	s := &Store{list: newSkiplist(), lockTimeout: lockTimeout}
	for _, cols := range indexes {
		var ix *secondary
		if cols != nil {
			ix = &secondary{cols: cols, nodes: map[uint64][]*node{}}
		}
		s.indexes = append(s.indexes, ix)
	}
	return s
}

// Len returns the number of live (visible-at-latest) rows.
func (s *Store) Len() int { return int(s.live.Load()) }

// NodeCount returns the number of skiplist nodes including tombstoned ones,
// for memory accounting.
func (s *Store) NodeCount() int { return int(s.list.length.Load()) }

// Txn is a write transaction. A Txn must finish with Commit or Abort.
type Txn struct {
	store    *Store
	id       uint64
	readTS   uint64
	state    atomic.Int32
	commitTS atomic.Uint64
	locked   []*node
	liveDiff int64
}

// Begin starts a transaction reading at snapshot readTS.
func (s *Store) Begin(readTS uint64) *Txn {
	return &Txn{store: s, id: s.nextTxnID.Add(1), readTS: readTS}
}

// ReadTS returns the transaction's snapshot timestamp.
func (t *Txn) ReadTS() uint64 { return t.readTS }

// lockRow acquires the row lock on n for t, waiting up to the store's lock
// timeout. Re-entrant for the owning transaction.
func (t *Txn) lockRow(n *node) error {
	deadline := time.Now().Add(t.store.lockTimeout)
	backoff := 10 * time.Microsecond
	for {
		n.mu.Lock()
		owner := n.owner
		// The lock is only free once the previous owner released it in
		// Commit/Abort (after stamping its versions); a finished-but-
		// unreleased owner still holds it.
		if owner == nil || owner == t {
			if owner != t {
				n.owner = t
				t.locked = append(t.locked, n)
			}
			n.mu.Unlock()
			return nil
		}
		n.mu.Unlock()
		if time.Now().After(deadline) {
			return ErrLockTimeout
		}
		// Drop the compaction gate while waiting: the lock owner needs it
		// to commit and release, and a pending Compact would otherwise
		// block the owner behind our shared hold (writer starvation
		// deadlock). The node survives compaction while it is locked.
		t.store.gate.RUnlock()
		time.Sleep(backoff)
		t.store.gate.RLock()
		if backoff < time.Millisecond {
			backoff *= 2
		}
	}
}

// visible walks a node's version chain and returns the newest version
// visible at readTS to transaction me (nil for a plain snapshot read).
func visible(n *node, readTS uint64, me *Txn) *version {
	for v := n.versions.Load(); v != nil; v = v.next {
		if owner := v.txn.Load(); owner != nil {
			if owner == me {
				return v
			}
			st := owner.state.Load()
			if st == txnCommitted && owner.commitTS.Load() <= readTS {
				return v
			}
			continue // active, aborted, or committed after our snapshot
		}
		if v.ts.Load() <= readTS {
			return v
		}
	}
	return nil
}

// pushVersion installs a new version at the head of n's chain for t and
// files n in the secondary indexes under data's keys. The caller must hold
// the row lock, so the head it replaces cannot change underneath.
func (t *Txn) pushVersion(n *node, data types.Row) {
	if data != nil {
		var prev types.Row
		if h := n.versions.Load(); h != nil {
			prev = h.data
		}
		t.store.file(n, data, prev)
	}
	v := &version{data: data}
	v.txn.Store(t)
	n.mu.Lock()
	v.next = n.versions.Load()
	n.versions.Store(v)
	n.mu.Unlock()
}

// Insert writes row under key, replacing any existing visible row.
// It reports whether a live row previously existed.
func (t *Txn) Insert(key []byte, row types.Row) (replaced bool, err error) {
	if t.state.Load() != txnActive {
		return false, ErrTxnDone
	}
	t.store.gate.RLock()
	defer t.store.gate.RUnlock()
	n := t.store.list.getOrInsert(key)
	if err := t.lockRow(n); err != nil {
		return false, err
	}
	// The live counter tracks the latest committed state, so "replaced" must
	// be judged against the latest committed (or own) version, not the
	// transaction's snapshot: an update transaction may begin at a snapshot
	// older than the move/flush that produced the row it overwrites, and
	// holding the row lock guarantees the latest committed version cannot
	// change before our commit. Judging at the snapshot double-counts such
	// rows, leaving Len() permanently above the real live count (which turns
	// flush-until-empty loops into livelocks).
	prev := visible(n, ^uint64(0), t)
	replaced = prev != nil && prev.data != nil
	t.pushVersion(n, row.Clone())
	if !replaced {
		t.liveDiff++
	}
	return replaced, nil
}

// Delete tombstones the row under key. It reports whether a live row
// existed.
func (t *Txn) Delete(key []byte) (existed bool, err error) {
	if t.state.Load() != txnActive {
		return false, ErrTxnDone
	}
	t.store.gate.RLock()
	defer t.store.gate.RUnlock()
	n := t.store.list.get(key)
	if n == nil {
		return false, nil
	}
	if err := t.lockRow(n); err != nil {
		return false, err
	}
	prev := visible(n, t.readTS, t)
	if prev == nil || prev.data == nil {
		return false, nil
	}
	t.pushVersion(n, nil)
	t.liveDiff--
	return true, nil
}

// Get returns the row under key as seen by this transaction (own writes
// first, then the snapshot).
func (t *Txn) Get(key []byte) (types.Row, bool) {
	t.store.gate.RLock()
	defer t.store.gate.RUnlock()
	n := t.store.list.get(key)
	if n == nil {
		return nil, false
	}
	v := visible(n, t.readTS, t)
	if v == nil || v.data == nil {
		return nil, false
	}
	return v.data, true
}

// LockAndGet acquires the row lock (waiting up to the lock timeout) and
// returns the latest committed version, which is what an UPDATE must read
// after locking ("an extra scanning pass ... after locking to find the
// latest versions of the locked rows", §4.2).
func (t *Txn) LockAndGet(key []byte) (row types.Row, existed bool, err error) {
	t.store.gate.RLock()
	defer t.store.gate.RUnlock()
	return t.lockAndGet(key)
}

func (t *Txn) lockAndGet(key []byte) (row types.Row, existed bool, err error) {
	if t.state.Load() != txnActive {
		return nil, false, ErrTxnDone
	}
	n := t.store.list.getOrInsert(key)
	if err := t.lockRow(n); err != nil {
		return nil, false, err
	}
	v := visible(n, ^uint64(0), t)
	if v == nil || v.data == nil {
		return nil, false, nil
	}
	return v.data, true, nil
}

// DeleteLatest locks the row (waiting) and tombstones its latest committed
// version, returning it.
func (t *Txn) DeleteLatest(key []byte) (row types.Row, existed bool, err error) {
	t.store.gate.RLock()
	defer t.store.gate.RUnlock()
	row, existed, err = t.lockAndGet(key)
	if err != nil || !existed {
		return nil, existed, err
	}
	t.pushVersion(t.store.list.get(key), nil)
	t.liveDiff--
	return row, true, nil
}

// ErrRowLocked is returned by TryDeleteLatest when another active
// transaction holds the row lock.
var ErrRowLocked = errors.New("rowstore: row locked by another transaction")

// TryDeleteLatest locks the row without waiting, reads its latest committed
// version (not the transaction's snapshot) and tombstones it. The flusher
// uses this so a row updated after the flush scan is flushed with its
// newest committed value rather than a stale one (§2.1.2), and rows held by
// active writers are skipped rather than waited on.
func (t *Txn) TryDeleteLatest(key []byte) (row types.Row, existed bool, err error) {
	if t.state.Load() != txnActive {
		return nil, false, ErrTxnDone
	}
	t.store.gate.RLock()
	defer t.store.gate.RUnlock()
	n := t.store.list.get(key)
	if n == nil {
		return nil, false, nil
	}
	n.mu.Lock()
	owner := n.owner
	if owner != nil && owner != t {
		n.mu.Unlock()
		return nil, false, ErrRowLocked
	}
	if owner != t {
		n.owner = t
		t.locked = append(t.locked, n)
	}
	n.mu.Unlock()
	v := visible(n, ^uint64(0), t) // latest committed (or own) version
	if v == nil || v.data == nil {
		return nil, false, nil
	}
	t.pushVersion(n, nil)
	t.liveDiff--
	return v.data, true, nil
}

// Commit makes the transaction's writes visible at commitTS, releases row
// locks and, while a journal is on, journals the keys it locked. Callers
// commit in timestamp order and publish commitTS only after Commit returns
// (core runs it under the committer mutex), so the journal is in timestamp
// order and complete up to every published timestamp.
func (t *Txn) Commit(commitTS uint64) {
	// The timestamp must be in place before the state flips: visible()
	// reads state then commitTS, and a committed transaction whose commitTS
	// still reads zero would be visible to every snapshot for an instant.
	// Only the first call sets it, so a repeated Commit (or one after
	// Abort) stays a no-op instead of moving a committed timestamp.
	t.commitTS.CompareAndSwap(0, commitTS)
	if !t.state.CompareAndSwap(txnActive, txnCommitted) {
		return
	}
	commitTS = t.commitTS.Load()
	t.store.gate.RLock()
	defer t.store.gate.RUnlock()
	// Stamp versions so future readers need not consult the txn, then
	// release the row locks. Our versions form a prefix of the chain (we
	// held the row lock), so stop at the first foreign version.
	for _, n := range t.locked {
		n.mu.Lock()
		for v := n.versions.Load(); v != nil; v = v.next {
			if v.txn.Load() != t {
				break
			}
			v.ts.Store(commitTS)
			v.txn.Store(nil)
		}
		n.owner = nil
		n.mu.Unlock()
	}
	t.store.live.Add(t.liveDiff)
	if len(t.locked) > 0 && t.store.journal.on.Load() {
		t.store.journal.record(commitTS, t.locked)
	}
}

// Abort discards the transaction's writes and releases row locks.
func (t *Txn) Abort() {
	if !t.state.CompareAndSwap(txnActive, txnAborted) {
		return
	}
	t.store.gate.RLock()
	defer t.store.gate.RUnlock()
	for _, n := range t.locked {
		n.mu.Lock()
		// Our versions form a prefix of the chain (we held the row lock).
		v := n.versions.Load()
		for v != nil && v.txn.Load() == t {
			v = v.next
		}
		n.versions.Store(v)
		n.owner = nil
		n.mu.Unlock()
	}
}

// Get performs a snapshot point read at readTS.
func (s *Store) Get(key []byte, readTS uint64) (types.Row, bool) {
	s.gate.RLock()
	defer s.gate.RUnlock()
	n := s.list.get(key)
	if n == nil {
		return nil, false
	}
	v := visible(n, readTS, nil)
	if v == nil || v.data == nil {
		return nil, false
	}
	return v.data, true
}

// Scan calls f for each live row with key in [from, to) at snapshot readTS,
// in key order. nil bounds are open. Returning false stops the scan.
func (s *Store) Scan(from, to []byte, readTS uint64, f func(key []byte, row types.Row) bool) {
	s.gate.RLock()
	defer s.gate.RUnlock()
	s.list.ascend(from, to, func(n *node) bool {
		v := visible(n, readTS, nil)
		if v == nil || v.data == nil {
			return true
		}
		return f(n.key, v.data)
	})
}

// ScanTxn is Scan but sees the transaction's own uncommitted writes.
func (t *Txn) Scan(from, to []byte, f func(key []byte, row types.Row) bool) {
	t.store.gate.RLock()
	defer t.store.gate.RUnlock()
	t.store.list.ascend(from, to, func(n *node) bool {
		v := visible(n, t.readTS, t)
		if v == nil || v.data == nil {
			return true
		}
		return f(n.key, v.data)
	})
}
