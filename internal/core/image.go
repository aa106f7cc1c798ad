package core

import (
	"bytes"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"s2db/internal/bitmap"
	"s2db/internal/colstore"
	"s2db/internal/rowstore"
	"s2db/internal/types"
)

// The write buffer's columnar image (DESIGN.md §19). A full scan of the
// buffer reads it as one more segment, through the same column kernels as
// the stored segments, instead of walking the skiplist row by row. The
// image holds the rows visible at one timestamp; the buffer's journal
// (rowstore/journal.go) lists the keys every later commit wrote, so a
// reader at T masks out the image rows those commits in (image TS, T]
// changed and reads only their keys from the skiplist: the delta.
//
// Invariants:
//   - the image's timestamp is a registered reader's: the reader that
//     built it, from the skiplist at its view's timestamp;
//   - journal entries up to the image's timestamp are trimmed only when a
//     new image installs;
//   - image rows minus the mask, plus the delta rows, are the rows a walk
//     at T returns, as a multiset.

// imageRebuildDiv and imageRebuildMin set when a reader rebuilds the image
// at its own timestamp: once its delta holds more than 1/imageRebuildDiv of
// the image's rows and more than imageRebuildMin keys. A rebuild costs one
// walk plus an encode; each delta key costs a skiplist seek and a row-path
// evaluation. On chbench (DESIGN.md §19) about 19 keys change between two
// scans of a 3.6 k-row image, so a rebuild comes every twenty-odd scans.
const (
	imageRebuildDiv = 8
	imageRebuildMin = 64
)

// imageMinRows is the live buffer size below which a full scan walks and
// starts no journal: an image of a few rows costs more to build and read
// than walking them, and a table whose buffer stays that small pays no
// journal appends on its commits.
const imageMinRows = 64

// bufImage is one columnar image of the write buffer: the rows visible at
// ts in key order, as a segment, and their keys. The buffer's journal
// holds it (rowstore.Store.InstallImage) and drops it with itself.
type bufImage struct {
	ts   uint64
	seg  *colstore.Segment
	keys [][]byte
	// vectors holds the segment's decoded columns for every reader of the
	// image (BufferImage.Vectors).
	vectors sync.Map
	// last is the newest delta a reader has computed: a later reader
	// extends it by the journal entries after it instead of starting over.
	last atomic.Pointer[imageDelta]
}

// ImageTS is the timestamp the image holds the rows of (rowstore.Image).
func (img *bufImage) ImageTS() uint64 { return img.ts }

// imageDelta is an image's delta at ts: the distinct keys the journal
// lists in (image ts, ts], in key order, with each key's row at ts, and
// the mask of the image rows those keys replace. It is never modified
// once built: readers share it.
type imageDelta struct {
	ts   uint64
	keys [][]byte
	rows []types.Row // rows[i] is keys[i]'s row at ts; nil when it has none
	live []types.Row // the non-nil rows, in key order
	mask *bitmap.Bitmap
}

func newImage(ts uint64, seg *colstore.Segment, keys [][]byte) *bufImage {
	img := &bufImage{ts: ts, seg: seg, keys: keys}
	img.last.Store(img.emptyDelta())
	return img
}

func (img *bufImage) emptyDelta() *imageDelta {
	return &imageDelta{ts: img.ts, mask: bitmap.New(len(img.keys))}
}

// deltaAt returns the image's delta at ts >= img.ts from the journal
// entries, which hold every commit after img.ts up to ts. It extends the
// newest delta computed so far when that is no newer than ts: a key it
// lists that no commit in (its ts, ts] wrote has the same row at ts. Only
// the keys written since are read from the skiplist, by get.
func (img *bufImage) deltaAt(ts uint64, journal []rowstore.JournalEntry, get func(key []byte) (types.Row, bool)) *imageDelta {
	base := img.last.Load()
	if base.ts > ts {
		base = img.emptyDelta()
	}
	fresh := changedKeys(journal, base.ts, ts)
	if len(fresh) == 0 {
		return base
	}
	n := len(base.keys) + len(fresh)
	d := &imageDelta{ts: ts, keys: make([][]byte, 0, n), rows: make([]types.Row, 0, n),
		live: make([]types.Row, 0, n), mask: base.mask.Clone()}
	add := func(k []byte, r types.Row) {
		d.keys, d.rows = append(d.keys, k), append(d.rows, r)
		if r != nil {
			d.live = append(d.live, r)
		}
	}
	i := 0
	for _, k := range fresh {
		for ; i < len(base.keys) && bytes.Compare(base.keys[i], k) < 0; i++ {
			add(base.keys[i], base.rows[i])
		}
		if i < len(base.keys) && bytes.Equal(base.keys[i], k) {
			i++
		} else if off, found := slices.BinarySearchFunc(img.keys, k, bytes.Compare); found {
			d.mask.Set(off)
		}
		r, _ := get(k)
		add(k, r)
	}
	for ; i < len(base.keys); i++ {
		add(base.keys[i], base.rows[i])
	}
	for {
		cur := img.last.Load()
		if cur.ts >= d.ts || img.last.CompareAndSwap(cur, d) {
			return d
		}
	}
}

// BufferImage is the write buffer of a full scan split for the column
// kernels: the image segment with its mask as deleted bits, and the delta
// rows that replace what the mask hides.
type BufferImage struct {
	// Meta is the image segment; Meta.Deleted masks the rows of the keys
	// written since the image's timestamp.
	Meta *colstore.Meta
	// Delta holds the rows of those keys visible at the view's timestamp,
	// in key order.
	Delta []types.Row
	// Vectors is the image's own store of decoded columns, keyed by column
	// ordinal, shared by every reader of the image and dropped with it: the
	// execution layer decodes each column once per image there, never in
	// the shared decoded-vector cache.
	Vectors *sync.Map
	// Built reports that this read built the image.
	Built bool
}

// BufferImage returns the view's whole write buffer as an image plus a
// delta, or false when the caller must walk it (ScanBufferAt with no
// placement). The first full scan of a buffer of at least imageMinRows
// live rows starts the journal. A scan builds the image when there is
// none and its view is no older than the journal, reads it while it is
// no newer than the view, and rebuilds it when the delta has outgrown
// it. Readers older than the image walk.
func (v *View) BufferImage() (BufferImage, bool) {
	v.mustBeOpen()
	defer runtime.KeepAlive(v)
	t := v.table
	j := t.buffer.Journal()
	switch {
	case !j.On:
		if t.buffer.Len() < imageMinRows {
			return BufferImage{}, false
		}
		if from := t.startJournal(); v.TS < from {
			return BufferImage{}, false
		}
		return v.buildImage()
	case j.Image == nil:
		if v.TS < j.From {
			return BufferImage{}, false
		}
		return v.buildImage()
	}
	img := j.Image.(*bufImage)
	if img.ts > v.TS {
		return BufferImage{}, false
	}
	d := img.deltaAt(v.TS, j.Entries, func(k []byte) (types.Row, bool) { return t.buffer.Get(k, v.TS) })
	if len(d.keys) > max(len(img.keys)/imageRebuildDiv, imageRebuildMin) {
		if b, ok := v.buildImage(); ok {
			return b, true
		}
	}
	return BufferImage{Meta: &colstore.Meta{Seg: img.seg, Deleted: d.mask}, Delta: d.live, Vectors: &img.vectors}, true
}

// changedKeys returns the distinct keys the journal, in timestamp order,
// lists in (from, to], in key order.
func changedKeys(journal []rowstore.JournalEntry, from, to uint64) [][]byte {
	i, _ := slices.BinarySearchFunc(journal, from, func(e rowstore.JournalEntry, ts uint64) int {
		if e.TS <= ts {
			return -1
		}
		return 1
	})
	var keys [][]byte
	for _, e := range journal[i:] {
		if e.TS > to {
			break
		}
		keys = append(keys, e.Key)
	}
	slices.SortFunc(keys, bytes.Compare)
	return slices.CompactFunc(keys, bytes.Equal)
}

// buildImage builds an image of the buffer at the view's timestamp and
// installs it in the journal, unless the journal misses commits after that
// timestamp or holds a newer image. It reports false when another rebuild
// is in progress. The image serves the view with an empty delta whether it
// installed or not.
func (v *View) buildImage() (BufferImage, bool) {
	t := v.table
	if !t.imageBuilding.CompareAndSwap(false, true) {
		return BufferImage{}, false
	}
	defer t.imageBuilding.Store(false)
	keys, rows := make([][]byte, 0, t.buffer.Len()), make([]types.Row, 0, t.buffer.Len())
	t.buffer.Scan(nil, nil, v.TS, func(k []byte, r types.Row) bool {
		keys, rows = append(keys, k), append(rows, r)
		return true
	})
	img := newImage(v.TS, colstore.BuildImage(t.schema, rows), keys)
	t.buffer.InstallImage(img)
	return BufferImage{Meta: colstore.NewMeta(img.seg, 0, ""), Vectors: &img.vectors, Built: true}, true
}

// startJournal starts the buffer's journal under the committer mutex, so
// it holds every commit after the timestamp published then, unless one
// runs already. It returns the running journal's start.
func (t *Table) startJournal() (from uint64) {
	t.committer.Quiesce(func(ts uint64) { from = t.buffer.StartJournal(ts) })
	return from
}
