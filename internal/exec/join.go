package exec

import (
	"s2db/internal/colstore"
	"s2db/internal/core"
	"s2db/internal/types"
	"s2db/internal/vector"
)

// JoinMode pins the join strategy for ablation; JoinAuto decides
// adaptively (§5.1).
type JoinMode uint8

// Join strategy modes.
const (
	JoinAuto JoinMode = iota
	JoinForceHash
	JoinForceIndex
)

// EquiJoin joins buildRows (the smaller side, already materialized) against
// the probe view on equality of key columns, emitting matched pairs.
//
// It models the paper's "join index filter" (§5.1): when the build side is
// small and the probe key is indexed, the probe side is filtered by index
// probes — like a bloom filter but with no false positives — instead of
// scanned. When the number of distinct probe keys is too high relative to
// the probe table size, the index filter is dynamically disabled and
// execution falls back to a hash join that scans the probe side.
// probeFilter (may be nil) applies additional clauses to probe rows.
// As in SQL, a NULL key joins nothing: rows with a NULL in a key column
// are skipped on both sides. It returns true when the index path was used.
func EquiJoin(
	buildRows []types.Row, buildKey []int,
	probe *core.View, probeKey []int, probeFilter Node,
	mode JoinMode, stats *ScanStats,
	emit func(build, probeRow types.Row) bool,
) bool {
	// Hash the build side by key.
	buildMap := make(map[string][]types.Row, len(buildRows))
	var keyBuf []byte
	for _, r := range buildRows {
		if NullKey(r, buildKey) {
			continue
		}
		keyBuf = keyBuf[:0]
		for _, c := range buildKey {
			keyBuf = types.EncodeKey(keyBuf, r[c])
		}
		buildMap[string(keyBuf)] = append(buildMap[string(keyBuf)], r)
	}

	idx := probe.Index()
	indexable := mode != JoinForceHash &&
		len(probeKey) == 1 && idx != nil && idx.HasColumn(probeKey[0])
	if indexable && mode != JoinForceIndex {
		// Dynamic disable: probing wins only when the build side is small
		// relative to the probe table (§5.1). The factor accounts for the
		// cost asymmetry between a seek-materialized index match (random
		// access into compressed columns) and a row visited by a
		// sequential vectorized scan.
		probeSize := probe.NumRows()
		if len(buildMap)*64 > probeSize {
			indexable = false
			if stats != nil {
				stats.JoinIndexFallbacks++
			}
		}
	}

	if indexable {
		if stats != nil {
			stats.JoinIndexFilters++
		}
		// Index path: probe each distinct build key.
		col := probeKey[0]
		seen := map[string]bool{}
		for _, r := range buildRows {
			v := r[buildKey[0]]
			k := string(types.EncodeKey(nil, v))
			if v.IsNull || seen[k] {
				continue
			}
			seen[k] = true
			builds := buildMap[k]
			// Buffer rows: a seek when the probe key leads the unique key
			// or is a buffer-indexed secondary key.
			stop := false
			place := probe.Schema.Place([]types.Pin{{Col: col, Val: v}})
			probe.ScanBufferAt(place, func(pr types.Row) bool {
				if !vector.CmpValue(pr[col], vector.Eq, v) {
					return true
				}
				if probeFilter != nil && !probeFilter.EvalRow(pr) {
					return true
				}
				for _, b := range builds {
					if !emit(b, pr) {
						stop = true
						return false
					}
				}
				return true
			})
			if stop {
				return true
			}
			// Segment rows via the index, restricted to the view.
			matches, probes := idx.LookupColumn(col, v)
			if stats != nil {
				stats.GlobalIndexProbes += int64(probes)
			}
			for _, m := range matches {
				meta := findMeta(probe, m.SegID)
				if meta == nil {
					continue
				}
				for _, off := range m.Rows {
					if meta.Deleted.Get(int(off)) {
						continue
					}
					pr := meta.Seg.RowAt(int(off))
					if probeFilter != nil && !probeFilter.EvalRow(pr) {
						continue
					}
					for _, b := range builds {
						if !emit(b, pr) {
							return true
						}
					}
				}
			}
		}
		return true
	}

	// Hash-join fallback: scan the probe side.
	scan := NewScan(probe, probeFilter)
	scan.Run(func(pr types.Row) bool {
		if NullKey(pr, probeKey) {
			return true
		}
		keyBuf = keyBuf[:0]
		for _, c := range probeKey {
			keyBuf = types.EncodeKey(keyBuf, pr[c])
		}
		for _, b := range buildMap[string(keyBuf)] {
			if !emit(b, pr) {
				return false
			}
		}
		return true
	})
	if stats != nil {
		stats.SegmentsScanned += scan.Stats.SegmentsScanned
	}
	return false
}

// NullKey reports whether some key column of r is NULL: such a row joins
// nothing, though a NULL encodes like any other key value.
func NullKey(r types.Row, key []int) bool {
	for _, c := range key {
		if r[c].IsNull {
			return true
		}
	}
	return false
}

func findMeta(view *core.View, segID uint64) *colstore.Meta {
	for _, m := range view.Segs {
		if m.Seg.ID == segID {
			return m
		}
	}
	return nil
}
