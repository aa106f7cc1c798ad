package rowstore

import (
	"bytes"
	"slices"
	"sync"

	"s2db/internal/types"
)

// secondary is one in-buffer secondary index (§4.1.1): KeyHash of the
// indexed columns' EncodeKey bytes maps to the nodes filed under it. It
// over-approximates the rows holding a key: an aborted write, or an update
// that moved a row off the key, leaves its node filed until the next
// Compact rebuilds the index, and hashes collide. Readers therefore check
// the visible row's key before they emit it, and callers still re-check
// their own predicate.
type secondary struct {
	cols []int

	mu      sync.RWMutex
	nodes   map[uint64][]*node
	entries int // filings since the last rebuild, for Compact
}

func (ix *secondary) hash(r types.Row) uint64 {
	var buf [64]byte
	return types.KeyHash(ix.encode(buf[:0], r))
}

func (ix *secondary) encode(buf []byte, r types.Row) []byte {
	for _, c := range ix.cols {
		buf = types.EncodeKey(buf, r[c])
	}
	return buf
}

// file adds n under data's key in every index, except where prev — the
// version data replaces — had the same key, so that n is already filed
// there: an update that leaves a key alone costs one compare.
func (s *Store) file(n *node, data, prev types.Row) {
	for _, ix := range s.indexes {
		if ix == nil || (prev != nil && types.CompareRows(prev, data, ix.cols) == 0) {
			continue
		}
		h := ix.hash(data)
		ix.mu.Lock()
		ix.nodes[h] = append(ix.nodes[h], n)
		ix.entries++
		ix.mu.Unlock()
	}
}

// reindex rebuilds every index from nodes and the versions they keep.
// Callers hold the gate exclusively.
func (s *Store) reindex(nodes []*node) {
	for _, ix := range s.indexes {
		if ix == nil {
			continue
		}
		fresh := make(map[uint64][]*node, len(nodes))
		entries := 0
		for _, n := range nodes {
			var last uint64
			filed := false
			for v := n.versions.Load(); v != nil; v = v.next {
				if v.data == nil {
					continue
				}
				if h := ix.hash(v.data); !filed || h != last {
					fresh[h] = append(fresh[h], n)
					entries++
					last, filed = h, true
				}
			}
		}
		ix.nodes, ix.entries = fresh, entries
	}
}

// bloated reports whether some index holds more than two filings per
// node, the point at which Compact rebuilds it even if no node was
// dropped (a row whose key keeps changing files its node again each time).
func (s *Store) bloated(nodes int) bool {
	for _, ix := range s.indexes {
		if ix != nil && ix.entries > 2*nodes {
			return true
		}
	}
	return false
}

// ScanPlaced calls f for each live row at readTS that p places in the
// buffer, in key order: the rows filed under p.Secondary in that key's
// index, or else the rows with keys in [p.From, p.To). Returning false
// stops the scan. Callers re-check their predicate on every row. The store
// must have been built with the placing schema's BufferIndexes.
func (s *Store) ScanPlaced(p types.Placement, readTS uint64, f func(key []byte, row types.Row) bool) {
	if len(p.Secondary) == 0 {
		s.Scan(p.From, p.To, readTS, f)
		return
	}
	ix := s.indexes[p.Index]
	var wantBuf, keyBuf [64]byte
	want := types.EncodeKey(wantBuf[:0], p.Secondary...)
	s.gate.RLock()
	defer s.gate.RUnlock()
	ix.mu.RLock()
	nodes := slices.Clone(ix.nodes[types.KeyHash(want)])
	ix.mu.RUnlock()
	// A node may be filed more than once under one key (its row left the
	// key and came back); sorting by key makes the copies adjacent.
	slices.SortFunc(nodes, func(a, b *node) int { return bytes.Compare(a.key, b.key) })
	for i, n := range nodes {
		if i > 0 && nodes[i-1] == n {
			continue
		}
		v := visible(n, readTS, nil)
		if v == nil || v.data == nil || !bytes.Equal(ix.encode(keyBuf[:0], v.data), want) {
			continue
		}
		if !f(n.key, v.data) {
			return
		}
	}
}
