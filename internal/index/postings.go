// Package index implements the two-level secondary index structure of
// §4.1: a per-segment inverted index mapping column values to postings
// lists of row offsets, and a global index, one hash map from value hashes
// to segment ids. A point lookup probes one hash table instead of O(N)
// per-segment filters; segment deletions are handled lazily (§4.1, "reads
// simply skip the references to deleted segments").
package index

import "sort"

// Postings is a sorted list of row offsets within one segment.
type Postings []int32

// Intersect merges two postings lists keeping offsets present in both,
// using forward seeking (galloping search) so long lists can be skipped
// when the other list guarantees no match in a section (§4.1, citing
// Sanders & Transier).
func Intersect(a, b Postings) Postings {
	if len(a) > len(b) {
		a, b = b, a
	}
	out := make(Postings, 0, len(a))
	lo := 0
	for _, v := range a {
		// Gallop forward in b.
		step := 1
		for lo+step < len(b) && b[lo+step] < v {
			step *= 2
		}
		hi := lo + step
		if hi > len(b) {
			hi = len(b)
		}
		pos := lo + sort.Search(hi-lo, func(i int) bool { return b[lo+i] >= v })
		if pos < len(b) && b[pos] == v {
			out = append(out, v)
			lo = pos + 1
		} else {
			lo = pos
		}
		if lo >= len(b) {
			break
		}
	}
	return out
}

// Union merges two postings lists keeping all distinct offsets.
func Union(a, b Postings) Postings {
	out := make(Postings, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// IntersectAll intersects several postings lists, smallest first so the
// running result stays small.
func IntersectAll(lists []Postings) Postings {
	if len(lists) == 0 {
		return nil
	}
	sorted := append([]Postings(nil), lists...)
	sort.Slice(sorted, func(i, j int) bool { return len(sorted[i]) < len(sorted[j]) })
	out := sorted[0]
	for _, l := range sorted[1:] {
		if len(out) == 0 {
			return nil
		}
		out = Intersect(out, l)
	}
	return out
}
