package colstore

import (
	"sort"

	"s2db/internal/bitmap"
)

// Meta is the mutable per-segment metadata the paper stores in a durable
// rowstore table (§2.1.2): the deleted bit vector plus bookkeeping. The
// segment payload itself is immutable; installing a new Meta version is how
// deletes and merges become visible.
type Meta struct {
	Seg *Segment
	// Deleted marks rows filtered out of every read. A row's bit is set
	// either by a write that claims the row (the §4.2 move) or when the row
	// was replaced.
	Deleted *bitmap.Bitmap
	// Run is the sorted-run generation the segment belongs to; higher runs
	// are newer. Segments within a run are ordered and non-overlapping on
	// the sort key.
	Run int
	// File is the data file name ("named after the log page at which it
	// was created", §3) used for blob staging.
	File string
}

// NewMeta wraps a fresh segment with an empty deleted vector.
func NewMeta(seg *Segment, run int, file string) *Meta {
	return &Meta{Seg: seg, Deleted: bitmap.New(seg.NumRows), Run: run, File: file}
}

// LiveRows returns the number of non-deleted rows.
func (m *Meta) LiveRows() int { return m.Seg.NumRows - m.Deleted.Count() }

// CloneWithDeleted returns a copy of the metadata with a new deleted
// vector, leaving the original untouched for concurrent readers.
func (m *Meta) CloneWithDeleted(d *bitmap.Bitmap) *Meta {
	return &Meta{Seg: m.Seg, Deleted: d, Run: m.Run, File: m.File}
}

// MergePlan selects sorted runs to merge. The policy keeps a logarithmic
// number of runs (§2.1.2): whenever `fanout` or more runs exist whose total
// live row count is below the next power-of-fanout boundary, they merge.
type MergePlan struct {
	// Runs lists the run generations to merge together.
	Runs []int
}

// PickMerge examines run sizes (live rows per run generation) and returns a
// plan, or nil when the tree is already logarithmic. fanout must be >= 2.
//
// heat, when non-nil, carries a per-run hotness score derived from the
// decoded-vector cache (resident bytes plus recent hits). Merging a run
// invalidates its cached vectors, so when a tier holds more than fanout
// candidates the planner merges the fanout *coldest* runs and leaves hot
// runs for a later pass — plus any extra zero-heat runs, so a fully cold
// tier still collapses in one merge exactly as the size-only policy would.
// A nil or all-zero heat map reproduces the size-only behavior.
func PickMerge(runSizes map[int]int, fanout int, heat map[int]int64) *MergePlan {
	if fanout < 2 {
		fanout = 2
	}
	if len(runSizes) < fanout {
		return nil
	}
	// Bucket runs by size tier: tier t holds runs with size in
	// [fanout^t, fanout^(t+1)). Merging all runs in the fullest small tier
	// keeps run count logarithmic in total rows.
	tiers := map[int][]int{}
	for run, size := range runSizes {
		t := 0
		for s := size; s >= fanout; s /= fanout {
			t++
		}
		tiers[t] = append(tiers[t], run)
	}
	var tierKeys []int
	for t := range tiers {
		tierKeys = append(tierKeys, t)
	}
	sort.Ints(tierKeys)
	for _, t := range tierKeys {
		if len(tiers[t]) >= fanout {
			runs := tiers[t]
			if len(runs) > fanout {
				// Coldest first; equal heat falls back to run order so the
				// selection is deterministic.
				sort.Slice(runs, func(i, j int) bool {
					if heat[runs[i]] != heat[runs[j]] {
						return heat[runs[i]] < heat[runs[j]]
					}
					return runs[i] < runs[j]
				})
				keep := runs[:fanout:fanout]
				for _, r := range runs[fanout:] {
					if heat[r] == 0 {
						keep = append(keep, r)
					}
				}
				runs = keep
			}
			sort.Ints(runs)
			return &MergePlan{Runs: runs}
		}
	}
	return nil
}
