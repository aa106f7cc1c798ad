// Package wal implements the per-partition write-ahead log (§2.1.1, §3):
// an append-only record stream with replication watermarks, chunked upload
// of the durable prefix to blob storage, and snapshots that bound recovery
// time. Record payloads are opaque to the log; the table layer defines
// their encoding.
//
// Replication, durability and staging all operate on log *pages* — sealed
// runs of records with [FirstLSN, EndLSN) — matching §3's "replicates log
// pages early" design. A page seals when it reaches a byte or record
// threshold, or when the group-commit timer fires; with a zero
// FlushInterval every append seals its own page, which reproduces
// per-record shipping exactly.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"s2db/internal/codec"
)

// Kind tags a log record for the replaying layer.
type Kind uint8

// Record kinds used by the unified table storage. The WAL itself only
// requires them to be stable across serialize/replay.
const (
	// KindInsert is a row insert into the in-memory rowstore.
	KindInsert Kind = iota + 1
	// KindDelete is a row delete (tombstone) from the in-memory rowstore.
	KindDelete
	// KindFlush converts rowstore rows into a columnstore segment.
	KindFlush
	// KindMerge replaces segments with a merged segment.
	KindMerge
	// KindMove is the autonomous move transaction of §4.2: rows copied
	// from a segment into the rowstore with their deleted bits set.
	KindMove
	// KindMetaDelete updates only a segment's deleted bit vector.
	KindMetaDelete
	// KindCommit marks a transaction commit with its timestamp.
	KindCommit
)

// Record is one log entry. LSN is assigned by Append and is dense (the
// record index), which the chunking and replication layers rely on. Wall
// is the append wall-clock time in Unix nanoseconds: point-in-time restore
// maps a wall-clock target to a per-partition log position with it (§3.2),
// since commit timestamps are partition-local and not comparable across
// partitions.
type Record struct {
	LSN      uint64
	Kind     Kind
	CommitTS uint64
	Wall     int64
	Data     []byte
}

// recordOverhead approximates the fixed per-record framing cost used for
// page-size accounting and lag-in-bytes reporting.
const recordOverhead = 16

// RecordSize is the accounting size of a record: payload plus framing.
func RecordSize(r Record) int { return recordOverhead + len(r.Data) }

func recsBytes(recs []Record) int {
	n := 0
	for i := range recs {
		n += RecordSize(recs[i])
	}
	return n
}

// ErrSlowConsumer is reported by a Subscription that was detached because
// its pending pages exceeded the byte budget. The consumer must
// re-subscribe (typically after catching up from blob-staged chunks).
var ErrSlowConsumer = errors.New("wal: subscription exceeded its pending byte budget")

// Defaults for PageConfig fields left at zero.
const (
	DefaultPageBytes          = 64 << 10
	DefaultPageRecords        = 1024
	DefaultSubscriptionBudget = 256 << 20
)

// PageConfig controls page sealing and subscriber buffering.
type PageConfig struct {
	// MaxBytes seals the open page once its records reach this many
	// accounting bytes. Default 64KiB.
	MaxBytes int
	// MaxRecords seals the open page once it holds this many records.
	// Default 1024.
	MaxRecords int
	// FlushInterval is the group-commit timer: the open page seals at most
	// this long after its first record. Zero seals on every append
	// (per-record shipping).
	FlushInterval time.Duration
	// SubscriptionBudget bounds the bytes a subscription may hold pending
	// before it is detached with ErrSlowConsumer. Default 256MiB.
	SubscriptionBudget int
}

func (c PageConfig) withDefaults() PageConfig {
	if c.MaxBytes <= 0 {
		c.MaxBytes = DefaultPageBytes
	}
	if c.MaxRecords <= 0 {
		c.MaxRecords = DefaultPageRecords
	}
	if c.SubscriptionBudget <= 0 {
		c.SubscriptionBudget = DefaultSubscriptionBudget
	}
	return c
}

// Page is a sealed, immutable run of records covering [FirstLSN, EndLSN).
// Records aliases the log's buffer; records are never mutated after append.
// Pages are the unit of replication, acknowledgement and blob staging.
type Page struct {
	FirstLSN uint64
	EndLSN   uint64
	Bytes    int
	Records  []Record
}

// pageSpan remembers a sealed page boundary inside the retained buffer so
// staging can cut blob chunks on the same boundaries replication shipped.
type pageSpan struct {
	first, end uint64
}

// Log is an append-only in-memory record log with a durable watermark.
// The watermark models §3's rule that only the fully durable and
// replicated prefix may be uploaded to blob storage.
type Log struct {
	mu      sync.Mutex
	cfg     PageConfig
	recs    []Record
	base    uint64 // LSN of recs[0]; records below base were truncated
	durable uint64 // first non-durable LSN (all records < durable are durable)
	subs    map[int]*Subscription
	nextSub int

	sealed      []pageSpan // sealed page boundaries in [base, openStart), ascending
	openStart   uint64     // first LSN of the open (unsealed) page
	openBytes   int        // accounting bytes in the open page
	timerArmed  bool       // a group-commit timer will fire for the open page
	pagesSealed uint64
}

// NewLog returns an empty log with default paging (seal on every append).
func NewLog() *Log {
	return NewLogWith(PageConfig{})
}

// NewLogWith returns an empty log with the given page configuration.
func NewLogWith(cfg PageConfig) *Log {
	return &Log{cfg: cfg.withDefaults(), subs: make(map[int]*Subscription)}
}

// Append adds a record and returns its LSN. The record joins the open page,
// which is streamed to subscribers as soon as it seals (replication
// replicates log pages early, before commit, §3).
func (l *Log) Append(kind Kind, commitTS uint64, data []byte) uint64 {
	l.mu.Lock()
	lsn := l.base + uint64(len(l.recs))
	rec := Record{LSN: lsn, Kind: kind, CommitTS: commitTS, Wall: time.Now().UnixNano(), Data: data}
	l.appendLocked(rec)
	l.mu.Unlock()
	return lsn
}

// AppendRecord appends a fully-formed record (replication replay),
// preserving its wall time. The record's LSN must equal the log head.
func (l *Log) AppendRecord(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if head := l.base + uint64(len(l.recs)); rec.LSN != head {
		return fmt.Errorf("wal: AppendRecord LSN %d != head %d", rec.LSN, head)
	}
	l.appendLocked(rec)
	return nil
}

func (l *Log) appendLocked(rec Record) {
	l.recs = append(l.recs, rec)
	l.openBytes += RecordSize(rec)
	openRecs := int(l.base + uint64(len(l.recs)) - l.openStart)
	if l.cfg.FlushInterval <= 0 || l.openBytes >= l.cfg.MaxBytes || openRecs >= l.cfg.MaxRecords {
		l.sealLocked()
		return
	}
	if !l.timerArmed {
		l.timerArmed = true
		time.AfterFunc(l.cfg.FlushInterval, l.timerFlush)
	}
}

func (l *Log) timerFlush() {
	l.mu.Lock()
	l.timerArmed = false
	l.sealLocked()
	l.mu.Unlock()
}

// Sync seals the open page immediately, flushing any records held back by
// the group-commit timer to subscribers.
func (l *Log) Sync() {
	l.mu.Lock()
	l.sealLocked()
	l.mu.Unlock()
}

// sealLocked closes the open page and offers it to every subscriber. A
// subscriber over its byte budget is detached here rather than buffering
// without bound.
func (l *Log) sealLocked() {
	head := l.base + uint64(len(l.recs))
	if l.openStart >= head {
		return
	}
	first, end := l.openStart, head
	recs := l.recs[first-l.base : end-l.base]
	pg := Page{FirstLSN: first, EndLSN: end, Bytes: l.openBytes, Records: recs}
	l.sealed = append(l.sealed, pageSpan{first: first, end: end})
	l.openStart = end
	l.openBytes = 0
	l.pagesSealed++
	for id, s := range l.subs {
		if !s.offer(pg) {
			delete(l.subs, id)
		}
	}
}

// PagesSealed reports how many pages have sealed over the log's lifetime.
func (l *Log) PagesSealed() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pagesSealed
}

// Head returns the next LSN to be assigned.
func (l *Log) Head() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base + uint64(len(l.recs))
}

// Base returns the first retained LSN.
func (l *Log) Base() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// MarkDurable advances the durable watermark to lsn (exclusive).
func (l *Log) MarkDurable(lsn uint64) {
	l.mu.Lock()
	if lsn > l.durable {
		l.durable = lsn
	}
	l.mu.Unlock()
}

// Durable returns the durable watermark (exclusive LSN).
func (l *Log) Durable() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// Records returns a copy of records with LSN in [from, to).
func (l *Log) Records(from, to uint64) ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < l.base {
		return nil, fmt.Errorf("wal: records from %d already truncated (base %d)", from, l.base)
	}
	end := l.base + uint64(len(l.recs))
	if to > end {
		to = end
	}
	if from >= to {
		return nil, nil
	}
	out := make([]Record, to-from)
	copy(out, l.recs[from-l.base:to-l.base])
	return out, nil
}

// ChunkAt returns a copy of records starting at from and ending at the
// sealed-page boundary containing from, so blob chunks align with the pages
// replication shipped. When from is past every sealed page, the open tail
// up to limit is returned as a partial trailing chunk (CommitBlob with no
// sync replicas advances durability into the open page). maxRecords, if
// positive, caps the chunk length. end reports the LSN one past the last
// returned record (== from when nothing is available).
func (l *Log) ChunkAt(from, limit uint64, maxRecords int) (recs []Record, end uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < l.base {
		return nil, from, fmt.Errorf("wal: chunk from %d already truncated (base %d)", from, l.base)
	}
	end = l.base + uint64(len(l.recs))
	idx := sort.Search(len(l.sealed), func(i int) bool { return l.sealed[i].end > from })
	if idx < len(l.sealed) {
		end = l.sealed[idx].end
	}
	if end > limit {
		end = limit
	}
	if maxRecords > 0 && end > from+uint64(maxRecords) {
		end = from + uint64(maxRecords)
	}
	if from >= end {
		return nil, from, nil
	}
	out := make([]Record, end-from)
	copy(out, l.recs[from-l.base:end-l.base])
	return out, end, nil
}

// Subscription is an ordered stream of sealed log pages. Appends never
// block on slow subscribers; instead a subscriber holding more than its
// byte budget of undelivered pages is detached with ErrSlowConsumer.
// Consumers pull whole pages with NextPage or single records with Next.
type Subscription struct {
	mu           sync.Mutex
	cond         *sync.Cond
	pages        []Page
	pendingBytes int
	pendingRecs  int
	closed       bool
	err          error
	budget       int
	next         uint64 // lowest LSN this subscription still needs
	// pacer, when set, charges each delivered page's bytes against a
	// bandwidth budget before NextPage returns it. It runs outside the
	// subscription lock (it may sleep on a token refill) so offer() —
	// called under the log mutex — is never delayed by pacing. A pacer
	// error fails the subscription with that error; the popped page is
	// dropped, which is safe because consumers resubscribe from their
	// applied position.
	pacer func(bytes int) error

	log *Log
	id  int
}

// SetPacer installs a bandwidth pacer called once per page NextPage
// delivers, with the page's accounting bytes. Install it before the
// consuming goroutine starts; the error a pacer returns (e.g. a QoS
// shed) surfaces via Err after NextPage returns ok == false.
func (s *Subscription) SetPacer(fn func(bytes int) error) {
	s.mu.Lock()
	s.pacer = fn
	s.mu.Unlock()
}

// fail detaches the subscription from the log and ends it with err,
// waking blocked readers.
func (s *Subscription) fail(err error) {
	s.log.mu.Lock()
	delete(s.log.subs, s.id)
	s.log.mu.Unlock()
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// offer delivers a sealed page, trimming any prefix the subscriber already
// has. Returns false when the subscription is closed or newly detached for
// exceeding its budget; the caller then drops it from the log.
func (s *Subscription) offer(pg Page) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.next > pg.FirstLSN {
		if s.next >= pg.EndLSN {
			return true
		}
		pg.Records = pg.Records[s.next-pg.FirstLSN:]
		pg.FirstLSN = s.next
		pg.Bytes = recsBytes(pg.Records)
	}
	// Detach over-budget subscribers, but always accept a page into an
	// empty queue so a lone oversized page cannot wedge delivery.
	if s.budget > 0 && s.pendingRecs > 0 && s.pendingBytes+pg.Bytes > s.budget {
		s.err = ErrSlowConsumer
		s.closed = true
		s.cond.Broadcast()
		return false
	}
	s.pages = append(s.pages, pg)
	s.pendingBytes += pg.Bytes
	s.pendingRecs += len(pg.Records)
	s.next = pg.EndLSN
	s.cond.Signal()
	return true
}

// NextPage blocks until a sealed page is available or the subscription
// ends; ok is false after cancellation or detachment once the backlog
// drains (check Err to distinguish).
func (s *Subscription) NextPage() (pg Page, ok bool) {
	s.mu.Lock()
	for len(s.pages) == 0 && !s.closed {
		s.cond.Wait()
	}
	if len(s.pages) == 0 {
		s.mu.Unlock()
		return Page{}, false
	}
	pg = s.pages[0]
	s.pages = s.pages[1:]
	s.pendingBytes -= pg.Bytes
	s.pendingRecs -= len(pg.Records)
	pacer := s.pacer
	s.mu.Unlock()
	// Pacing runs off-lock: the pacer may sleep on a bandwidth refill,
	// and offer() (called under the log mutex) must never wait on it.
	if pacer != nil && pg.Bytes > 0 {
		if err := pacer(pg.Bytes); err != nil {
			s.fail(err)
			return Page{}, false
		}
	}
	return pg, true
}

// Next blocks until a record is available or the subscription ends; ok is
// false after cancellation once the backlog drains.
func (s *Subscription) Next() (rec Record, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.pendingRecs == 0 && !s.closed {
		s.cond.Wait()
	}
	if s.pendingRecs == 0 {
		return Record{}, false
	}
	return s.popRecordLocked(), true
}

// TryNext returns a pending record without blocking.
func (s *Subscription) TryNext() (rec Record, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pendingRecs == 0 {
		return Record{}, false
	}
	return s.popRecordLocked(), true
}

func (s *Subscription) popRecordLocked() Record {
	pg := &s.pages[0]
	rec := pg.Records[0]
	sz := RecordSize(rec)
	pg.Records = pg.Records[1:]
	pg.FirstLSN++
	pg.Bytes -= sz
	s.pendingBytes -= sz
	s.pendingRecs--
	if len(pg.Records) == 0 {
		s.pages = s.pages[1:]
	}
	return rec
}

// Cancel detaches the subscription from the log and wakes blocked readers.
func (s *Subscription) Cancel() {
	s.log.mu.Lock()
	delete(s.log.subs, s.id)
	s.log.mu.Unlock()
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Err reports why the subscription ended: ErrSlowConsumer after a budget
// detachment, nil after Cancel or while still attached.
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Lag returns the number of records queued but not yet consumed, which the
// cluster reports as replication lag (Table 3 discussion).
func (s *Subscription) Lag() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pendingRecs
}

// LagBytes returns the accounting bytes queued but not yet consumed.
func (s *Subscription) LagBytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pendingBytes
}

// LagPages returns the number of pages queued but not yet consumed.
func (s *Subscription) LagPages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pages)
}

// Subscribe streams every record with LSN >= from: sealed backlog pages
// first, then future pages, in LSN order. Records still in the open page
// arrive when it seals (immediately under per-record paging).
func (l *Log) Subscribe(from uint64) (*Subscription, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < l.base {
		return nil, fmt.Errorf("wal: subscription from %d already truncated (base %d)", from, l.base)
	}
	s := &Subscription{log: l, id: l.nextSub, budget: l.cfg.SubscriptionBudget, next: from}
	s.cond = sync.NewCond(&s.mu)
	for _, sp := range l.sealed {
		if sp.end <= from {
			continue
		}
		first := sp.first
		if first < from {
			first = from
		}
		recs := l.recs[first-l.base : sp.end-l.base]
		s.pages = append(s.pages, Page{FirstLSN: first, EndLSN: sp.end, Bytes: recsBytes(recs), Records: recs})
		s.pendingBytes += s.pages[len(s.pages)-1].Bytes
		s.pendingRecs += len(recs)
		s.next = sp.end
	}
	if s.next < l.openStart {
		s.next = l.openStart
	}
	l.subs[l.nextSub] = s
	l.nextSub++
	return s, nil
}

// TruncateBefore drops records below lsn (after they are snapshotted or
// uploaded) and advances the log base to lsn even when that skips past the
// end of the buffer — a replica bootstrapped from a snapshot starts its log
// at the snapshot position without holding any records.
func (l *Log) TruncateBefore(lsn uint64) {
	l.mu.Lock()
	if lsn > l.base {
		n := lsn - l.base
		if n >= uint64(len(l.recs)) {
			l.recs = nil
		} else {
			l.recs = append([]Record(nil), l.recs[n:]...)
		}
		l.base = lsn
		k := 0
		for _, sp := range l.sealed {
			if sp.end <= lsn {
				continue
			}
			if sp.first < lsn {
				sp.first = lsn
			}
			l.sealed[k] = sp
			k++
		}
		l.sealed = l.sealed[:k]
		if l.openStart < lsn {
			l.openStart = lsn
			l.openBytes = recsBytes(l.recs)
		}
	}
	l.mu.Unlock()
}

// chunkVersion is the log chunk format version EncodeRecords writes and
// DecodeRecords reads.
const chunkVersion = 1

// EncodeRecords serializes records into a chunk for blob upload: an object
// header, then the records as a page frame carries them.
func EncodeRecords(recs []Record) []byte {
	return appendRecords(codec.AppendHeader(nil, codec.ObjLogChunk, chunkVersion), recs)
}

// DecodeRecords deserializes a chunk written by EncodeRecords.
func DecodeRecords(buf []byte) ([]Record, error) {
	r := codec.NewReader(buf)
	if v := r.Header(codec.ObjLogChunk); v != chunkVersion {
		r.Unsupported(v)
	}
	recs := readRecords(r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("wal: log chunk: %w", err)
	}
	return recs, nil
}

func appendRecords(buf []byte, recs []Record) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(recs)))
	for _, r := range recs {
		buf = binary.AppendUvarint(buf, r.LSN)
		buf = append(buf, byte(r.Kind))
		buf = binary.AppendUvarint(buf, r.CommitTS)
		buf = binary.AppendVarint(buf, r.Wall)
		buf = codec.AppendBytes(buf, r.Data)
	}
	return buf
}

// readRecords reads what appendRecords wrote. Records arrive in blob
// chunks and page frames, so the count is checked against the bytes left
// before the slice is sized.
func readRecords(r *codec.Reader) []Record {
	// Every record takes at least five bytes: an LSN, its kind, a commit
	// timestamp, a wall time and a data length.
	n := r.Count(5)
	recs := make([]Record, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		rec := Record{LSN: r.Uvarint(), Kind: Kind(r.Byte()), CommitTS: r.Uvarint(), Wall: r.Varint()}
		rec.Data = append([]byte(nil), r.Field()...)
		recs = append(recs, rec)
	}
	return recs
}
