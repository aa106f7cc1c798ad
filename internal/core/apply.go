package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"s2db/internal/bitmap"
	"s2db/internal/codec"
	"s2db/internal/colstore"
	"s2db/internal/rowstore"
	"s2db/internal/types"
	"s2db/internal/wal"
)

// kv is one buffer write: a skiplist key and the row payload.
type kv struct {
	Key []byte
	Row types.Row
}

// segInstall is a segment a mutation adds. File, Run and SegBytes are
// logged. seg is the segment apply installs, built or decoded by the
// caller; deleted, its initial deleted bits, is set only for the stubs of
// RestoreState, which logs nothing.
type segInstall struct {
	File     string
	Run      int
	SegBytes []byte

	seg     *colstore.Segment
	deleted *bitmap.Bitmap
}

// mutation is the one description of a table state change and the payload
// of every table log record: buffer inserts, buffer tombstones, segment
// installs, segment drops and deleted-bit sets. Every primary write commits
// by applying one (commit), and replicas, recovery and PITR replay one
// (Apply), through the same apply. The record kind describes intent
// (insert vs delete vs merge); apply depends only on the payload.
type mutation struct {
	Table      string
	Inserts    []kv
	DeleteKeys [][]byte
	NewSegs    []segInstall
	DropSegs   []uint64
	// SegDeletes sets deleted bits. A writer fills in the rows it scanned;
	// apply replaces them with the rows it resolved them to through merge
	// remaps, and that is what the log records.
	SegDeletes map[uint64][]int32
	// remaps, aligned with DropSegs, are a primary merge's row remaps
	// (never logged): apply stores them on the retired inputs and carries
	// the inputs' late deletes through them into SegDeletes.
	remaps [][]remapTarget
}

// encodeHead serializes every section apply leaves unchanged, with room
// reserved for the segment-delete section that appendSegDeletes adds after
// apply. Writers encode the head before entering Committer.Commit, so the
// commit critical section encodes only the resolved deletes — a few varints
// on claims, an empty count otherwise — and concurrent writers' records
// batch into one log page.
func (m *mutation) encodeHead() []byte {
	var buf []byte
	buf = codec.AppendBytes(buf, m.Table)
	buf = binary.AppendUvarint(buf, uint64(len(m.Inserts)))
	for _, e := range m.Inserts {
		buf = codec.AppendBytes(buf, e.Key)
		buf = types.EncodeRow(buf, e.Row)
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.DeleteKeys)))
	for _, k := range m.DeleteKeys {
		buf = codec.AppendBytes(buf, k)
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.NewSegs)))
	for _, s := range m.NewSegs {
		buf = codec.AppendBytes(buf, s.File)
		buf = binary.AppendVarint(buf, int64(s.Run))
		buf = codec.AppendBytes(buf, s.SegBytes)
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.DropSegs)))
	for _, id := range m.DropSegs {
		buf = binary.AppendUvarint(buf, id)
	}
	// Resolution never adds offsets, so the section is one count byte when
	// empty and otherwise at most 25 bytes per offset: its share of the
	// count, a segment id, an offset count and itself. A merge's carried
	// deletes are not known yet.
	n := 0
	for _, offs := range m.SegDeletes {
		n += len(offs)
	}
	return slices.Grow(buf, 1+25*n)
}

// appendSegDeletes completes a record begun by encodeHead with the
// segment-delete section, segments in ascending id order.
func (m *mutation) appendSegDeletes(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(m.SegDeletes)))
	ids := make([]uint64, 0, len(m.SegDeletes))
	for id := range m.SegDeletes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		offs := m.SegDeletes[id]
		buf = binary.AppendUvarint(buf, id)
		buf = binary.AppendUvarint(buf, uint64(len(offs)))
		for _, o := range offs {
			buf = binary.AppendUvarint(buf, uint64(o))
		}
	}
	return buf
}

// decodeMutation parses a record payload. Records arrive over TCP and from
// blob storage, so it holds wal.DecodePage's contract through codec.Reader:
// every length and count is checked against the bytes left before anything
// is sliced or allocated, and a corrupt record is an error — never a
// panic, never an allocation beyond O(len(buf)).
func decodeMutation(buf []byte) (*mutation, error) {
	r := codec.NewReader(buf)
	m := &mutation{Table: string(r.Field()), SegDeletes: map[uint64][]int32{}}
	// Counts bound allocations by each element's least size: a key length
	// and a row arity; a key length; a name length, a run and a segment
	// length; an id; an id and an offset count; an offset.
	for i, n := 0, r.Count(2); i < n && r.Err() == nil; i++ {
		key := bytes.Clone(r.Field())
		m.Inserts = append(m.Inserts, kv{Key: key, Row: types.DecodeRow(r)})
	}
	for i, n := 0, r.Count(1); i < n && r.Err() == nil; i++ {
		m.DeleteKeys = append(m.DeleteKeys, bytes.Clone(r.Field()))
	}
	for i, n := 0, r.Count(3); i < n && r.Err() == nil; i++ {
		file, run := string(r.Field()), r.Varint()
		m.NewSegs = append(m.NewSegs, segInstall{File: file, Run: int(run), SegBytes: bytes.Clone(r.Field())})
	}
	for i, n := 0, r.Count(1); i < n && r.Err() == nil; i++ {
		m.DropSegs = append(m.DropSegs, r.Uvarint())
	}
	for i, n := 0, r.Count(2); i < n && r.Err() == nil; i++ {
		id := r.Uvarint()
		offs := make([]int32, r.Count(1))
		for j := range offs {
			o := r.Uvarint()
			if o > math.MaxInt32 {
				r.Fail("segment offset %d out of range", o)
			}
			offs[j] = int32(o)
		}
		m.SegDeletes[id] = offs
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("core: mutation: %w", err)
	}
	return m, nil
}

// TableOfRecord extracts the table name from a log record payload, so a
// partition replayer can dispatch records to the right table.
func TableOfRecord(rec wal.Record) (string, error) {
	r := codec.NewReader(rec.Data)
	name := r.Field()
	if err := r.Err(); err != nil {
		return "", fmt.Errorf("core: record table name: %w", err)
	}
	return string(name), nil
}

// commit publishes m as one transaction: under Committer.Commit it applies
// m at the next timestamp — the apply a replica runs on the record — and
// appends the record built from m after apply, so the log names what was
// applied rather than what the writer scanned. tx holds m's staged buffer
// writes; it is nil when there are none. A commit that creates maintenance
// work wakes the maintenance loop.
func (t *Table) commit(kind wal.Kind, tx *rowstore.Txn, m *mutation) (ts, lsn uint64) {
	m.Table = t.name
	head := m.encodeHead()
	ts = t.committer.Commit(func(ts uint64) {
		t.apply(ts, tx, m)
		lsn = t.log.Append(kind, ts, m.appendSegDeletes(head))
	})
	t.wakeAfter(tx, m)
	return ts, lsn
}

// apply is the table's one state-changing step, run inside the commit or
// replay critical section at ts: it installs m's new segments, sets its
// deleted bits — writing the resolved targets back into m — retires its
// dropped segments and commits tx's buffer writes. The primary reaches it
// through commit; Apply and RestoreState call it under ReplayAt.
func (t *Table) apply(ts uint64, tx *rowstore.Txn, m *mutation) {
	for _, s := range m.NewSegs {
		t.installSegment(ts, s.seg, s.Run, s.File, s.deleted)
	}
	// A merge's inputs hand the deletes that committed after the merge
	// scanned them to the outputs (rows deleted at the scan have no output
	// location, §4.2); as SegDeletes they reach the log too.
	for i, rm := range m.remaps {
		if m.SegDeletes == nil {
			m.SegDeletes = map[uint64][]int32{}
		}
		t.segMu.RLock()
		e := t.segs[m.DropSegs[i]]
		t.segMu.RUnlock()
		e.latestMeta().Deleted.Range(func(r int) bool {
			if tgt := rm[r]; tgt.off >= 0 {
				m.SegDeletes[tgt.seg] = append(m.SegDeletes[tgt.seg], tgt.off)
			}
			return true
		})
	}
	m.SegDeletes = t.applySegDeletes(ts, m.SegDeletes)
	for i, id := range m.DropSegs {
		var rm []remapTarget
		if m.remaps != nil {
			rm = m.remaps[i]
		}
		t.dropSegment(ts, id, rm)
	}
	if tx != nil {
		tx.Commit(ts)
	}
}

// Apply replays one log record against the table. It is used by recovery,
// replicas and PITR; the record's CommitTS becomes the visibility
// timestamp, and the partition clock is advanced to it.
func (t *Table) Apply(rec wal.Record) error {
	m, err := decodeMutation(rec.Data)
	if err != nil {
		return fmt.Errorf("table %s: apply LSN %d: %w", t.name, rec.LSN, err)
	}
	ts := rec.CommitTS
	tx := t.buffer.Begin(ts - 1)
	if err := t.stage(tx, m); err != nil {
		tx.Abort()
		return fmt.Errorf("table %s: apply LSN %d: %w", t.name, rec.LSN, err)
	}
	t.committer.ReplayAt(ts, func() { t.apply(ts, tx, m) })
	if rec.Kind == wal.KindFlush && len(m.DeleteKeys) > 0 {
		t.structMu.Lock()
		t.maybeCompact()
		t.structMu.Unlock()
	}
	return nil
}

// stage prepares a replayed m outside the commit section, as a primary
// writer does before it commits: buffer writes go into tx, and new
// segments are decoded and saved.
func (t *Table) stage(tx *rowstore.Txn, m *mutation) error {
	for _, e := range m.Inserts {
		if err := t.schema.CheckRow(e.Row); err != nil {
			return fmt.Errorf("insert: %w", err)
		}
		if _, err := tx.Insert(e.Key, e.Row); err != nil {
			return fmt.Errorf("insert: %w", err)
		}
		t.noteRowID(e.Key)
	}
	for _, k := range m.DeleteKeys {
		if _, _, err := tx.DeleteLatest(k); err != nil {
			return fmt.Errorf("delete: %w", err)
		}
	}
	for i := range m.NewSegs {
		s := &m.NewSegs[i]
		seg, err := t.decodeSegment(s.SegBytes)
		if err != nil {
			return fmt.Errorf("segment: %w", err)
		}
		if err := t.files.SaveFile(s.File, s.SegBytes); err != nil {
			return fmt.Errorf("file save: %w", err)
		}
		s.seg = seg
	}
	return nil
}

// decodeSegment decodes a data file of this table. The bytes come from
// blob storage or the replication link, so beyond what colstore.Decode
// checks, a segment may hold no more rows than a segment of this table or
// of the default configuration holds — the larger of the two, so a restore
// under a smaller MaxSegmentRows still reads its segments. A constant
// column claims 2^31 rows in a few bytes, and a scan of it would allocate
// per claimed row.
func (t *Table) decodeSegment(data []byte) (*colstore.Segment, error) {
	seg, err := colstore.Decode(data, t.schema)
	if err != nil {
		return nil, err
	}
	if limit := max(t.cfg.MaxSegmentRows, colstore.MaxSegmentRows); seg.NumRows > limit {
		return nil, fmt.Errorf("%w: segment %d claims %d rows, a segment holds at most %d", codec.ErrCorrupt, seg.ID, seg.NumRows, limit)
	}
	return seg, nil
}

// noteRowID keeps the hidden row-id allocator ahead of replayed keys so new
// writes never collide after recovery.
func (t *Table) noteRowID(key []byte) {
	if len(t.schema.UniqueKey) > 0 || len(key) != 9 || key[0] != 0x01 {
		return
	}
	var id uint64
	for _, b := range key[1:] {
		id = id<<8 | uint64(b)
	}
	id ^= 1 << 63
	for {
		cur := t.rowID.Load()
		if cur >= id || t.rowID.CompareAndSwap(cur, id) {
			return
		}
	}
}
