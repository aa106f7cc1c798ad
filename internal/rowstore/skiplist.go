// Package rowstore implements the in-memory rowstore (§2.1.1): a lock-free
// skiplist indexing rows, where each node carries a linked list of row
// versions for multiversion concurrency control (readers never wait on
// writers) and a per-row lock for pessimistic write-write concurrency
// control.
package rowstore

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"

	"s2db/internal/types"
)

const maxHeight = 16

// node is a skiplist node: one logical row identified by its key. Nodes are
// never physically unlinked; a deleted row is a tombstone version, which
// keeps concurrent traversal simple and lock-free.
//
// A walk reads versions, key and tower[0] of every node, so they lead the
// struct and share its first 40 bytes: one cache line per walked node (a
// node is 192 bytes, a size class whose objects start 64-byte aligned).
type node struct {
	versions atomic.Pointer[version]
	key      []byte
	tower    [maxHeight]atomic.Pointer[node]

	// mu guards the version list head and lock ownership; it is held only
	// for short critical sections, never across user code.
	mu    sync.Mutex
	cond  *sync.Cond // signaled when the row lock is released
	owner *Txn       // active writer holding the row lock, or nil
}

// version is one MVCC version of a row. data == nil marks a delete
// tombstone. While the writing transaction is active, txn is set and ts is
// unset; commit stamps ts and clears txn, making the version visible to
// snapshots at or after ts.
type version struct {
	ts   atomic.Uint64
	txn  atomic.Pointer[Txn]
	data types.Row
	next *version
}

// skiplist is an insert-only concurrent skiplist.
type skiplist struct {
	head   *node
	height atomic.Int32
	seed   atomic.Uint64
	length atomic.Int64 // number of nodes (live + tombstoned)
}

func newSkiplist() *skiplist {
	s := &skiplist{head: &node{}}
	s.head.cond = sync.NewCond(&s.head.mu)
	s.height.Store(1)
	s.seed.Store(rand.Uint64() | 1)
	return s
}

func (s *skiplist) randomHeight() int {
	// xorshift; each level has probability 1/4.
	x := s.seed.Load()
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.seed.Store(x)
	h := 1
	for h < maxHeight && x&3 == 0 {
		h++
		x >>= 2
	}
	return h
}

// findGE returns the first node with key >= target, filling prev with the
// rightmost node before target at each level when prev != nil.
func (s *skiplist) findGE(target []byte, prev *[maxHeight]*node) *node {
	x := s.head
	level := int(s.height.Load()) - 1
	for {
		next := x.tower[level].Load()
		if next != nil && bytes.Compare(next.key, target) < 0 {
			x = next
			continue
		}
		if prev != nil {
			prev[level] = x
		}
		if level == 0 {
			return next
		}
		level--
	}
}

// get returns the node with exactly this key, or nil.
func (s *skiplist) get(key []byte) *node {
	n := s.findGE(key, nil)
	if n != nil && bytes.Equal(n.key, key) {
		return n
	}
	return nil
}

// getOrInsert returns the node for key, inserting an empty node when absent.
func (s *skiplist) getOrInsert(key []byte) *node {
	var prev [maxHeight]*node
	for {
		n := s.findGE(key, &prev)
		if n != nil && bytes.Equal(n.key, key) {
			return n
		}
		h := s.randomHeight()
		for {
			cur := s.height.Load()
			if int(cur) >= h || s.height.CompareAndSwap(cur, int32(h)) {
				break
			}
		}
		nn := &node{key: append([]byte(nil), key...)}
		nn.cond = sync.NewCond(&nn.mu)
		// Link bottom-up with CAS; on contention re-search from scratch.
		for level := 0; level < h; level++ {
			p := prev[level]
			if p == nil {
				p = s.head
			}
			for {
				succ := p.tower[level].Load()
				if succ != nil && bytes.Compare(succ.key, key) < 0 {
					p = succ
					continue
				}
				if level == 0 && succ != nil && bytes.Equal(succ.key, key) {
					// Lost the race; someone inserted this key.
					return succ
				}
				nn.tower[level].Store(succ)
				if p.tower[level].CompareAndSwap(succ, nn) {
					break
				}
			}
		}
		s.length.Add(1)
		return nn
	}
}

// ascend calls f for nodes with key in [from, to) in order; nil from means
// from the start, nil to means to the end. Returning false stops.
func (s *skiplist) ascend(from, to []byte, f func(n *node) bool) {
	var x *node
	if from == nil {
		x = s.head.tower[0].Load()
	} else {
		x = s.findGE(from, nil)
	}
	for x != nil {
		if to != nil && bytes.Compare(x.key, to) >= 0 {
			return
		}
		if !f(x) {
			return
		}
		x = x.tower[0].Load()
	}
}
