package rowstore

import (
	"slices"
	"sync"
	"sync/atomic"
)

// JournalMax bounds the journal: a commit that would grow it past this many
// entries drops it, with its image, instead (a flush deletes thousands of
// keys at once), and the next full scan starts a new one.
const JournalMax = 2048

// JournalEntry records that the commit at TS wrote (or locked) the row
// under Key.
type JournalEntry struct {
	TS  uint64
	Key []byte
}

// Image is a reader's columnar image of the buffer at ImageTS
// (core/image.go). The journal holds the newest one, and drops it with
// itself: an image is only readable beside the keys written since.
type Image interface{ ImageTS() uint64 }

// Journal is a consistent read of the buffer's journal: whether it runs,
// the timestamp it started after, its entries in commit order and the
// image attached to it. Entries is shared: later commits append past its
// length and InstallImage copies, so what it holds never changes.
type Journal struct {
	On      bool
	From    uint64
	Entries []JournalEntry
	Image   Image // nil when none is installed
}

// journal lists the keys each commit wrote while it is on, in commit
// order, and holds the image they change. A reader of that image masks out
// the image rows whose keys the journal lists after the image's timestamp,
// and reads only those keys' rows from the skiplist.
type journal struct {
	on atomic.Bool // read by every Commit; mu guards the rest

	mu      sync.Mutex
	from    uint64
	entries []JournalEntry
	image   Image
}

// StartJournal starts an empty journal holding every commit after from,
// unless one runs already, and returns the running journal's start. The
// caller excludes commits while it calls it and passes the timestamp
// published then (core holds the committer mutex).
func (s *Store) StartJournal(from uint64) uint64 {
	j := &s.journal
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.on.Load() {
		j.from, j.entries, j.image = from, nil, nil
		j.on.Store(true)
	}
	return j.from
}

// Journal returns the journal as it stands.
func (s *Store) Journal() Journal {
	j := &s.journal
	j.mu.Lock()
	defer j.mu.Unlock()
	return Journal{On: j.on.Load(), From: j.from, Entries: j.entries, Image: j.image}
}

// InstallImage attaches img to the running journal, unless the journal
// misses commits after img's timestamp (it started later, or is not
// running) or a newer image is attached, and drops the entries at or below
// that timestamp, which no reader of img needs. It reports whether img
// installed.
func (s *Store) InstallImage(img Image) bool {
	j := &s.journal
	j.mu.Lock()
	defer j.mu.Unlock()
	ts := img.ImageTS()
	if !j.on.Load() || ts < j.from || (j.image != nil && j.image.ImageTS() >= ts) {
		return false
	}
	i, _ := slices.BinarySearchFunc(j.entries, ts, func(e JournalEntry, ts uint64) int {
		if e.TS <= ts {
			return -1
		}
		return 1
	})
	j.image, j.entries = img, slices.Clone(j.entries[i:])
	return true
}

// record journals the keys of the nodes a commit at ts locked, or drops
// the journal and its image when they would outgrow JournalMax.
func (j *journal) record(ts uint64, nodes []*node) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.on.Load() {
		return
	}
	if len(j.entries)+len(nodes) > JournalMax {
		j.on.Store(false)
		j.entries, j.image = nil, nil
		return
	}
	for _, n := range nodes {
		j.entries = append(j.entries, JournalEntry{TS: ts, Key: n.key})
	}
}
