package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"s2db/internal/bitmap"
	"s2db/internal/colstore"
	"s2db/internal/qos"
	"s2db/internal/rowstore"
	"s2db/internal/types"
	"s2db/internal/wal"
)

// compactPeriod is both the maintenance loop's retry timer, armed while a
// round leaves work pending, and the least time between two compactions,
// which rebuild the whole buffer. It decides how often compaction may run,
// never which versions a reader may see: that is the reader horizon's.
const compactPeriod = 250 * time.Millisecond

// mergeAdmissionWait bounds how long one merge round waits for its
// tenant's merge-I/O lease before giving the round back to the
// maintenance loop, which retries on its timer.
const mergeAdmissionWait = 2 * time.Second

// wake asks the maintenance loop for a round without blocking; wakes that
// arrive while one is already pending coalesce into it.
func (t *Table) wake() {
	select {
	case t.kick <- struct{}{}:
	default:
	}
}

// wakeAfter wakes the maintenance loop when a commit created work for it:
// m installed segments, so the run count changed (flush, merge, bulk
// load); the commit's buffer writes left the buffer at the flush
// threshold; or it is the first buffer-writing commit since the last
// compaction, so the buffer holds garbage to compact. A commit that does
// none of these pays two atomic loads.
func (t *Table) wakeAfter(tx *rowstore.Txn, m *mutation) {
	wake := len(m.NewSegs) > 0
	if tx != nil {
		if !t.dirty.Load() && t.dirty.CompareAndSwap(false, true) {
			wake = true
		}
		if t.buffer.Len() >= t.cfg.FlushThreshold {
			wake = true
		}
	}
	if wake {
		t.wake()
	}
}

// maintain is the background flusher and merger (§2.1.2). It sleeps until
// a commit wakes it (wakeAfter) and then runs a round. It arms its one
// timer, at compactPeriod, only while a round leaves work pending, so a
// table nobody writes costs nothing. It returns when ctx is canceled.
func (t *Table) maintain(ctx context.Context) {
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	for ctx.Err() == nil {
		pending := t.maintenanceRound(ctx)
		var timerC <-chan time.Time
		if pending {
			timer.Reset(compactPeriod)
			timerC = timer.C
		}
		select {
		case <-ctx.Done():
			return
		case <-t.kick:
			if pending && !timer.Stop() {
				<-timer.C
			}
		case <-timerC:
		}
	}
}

// maintenanceRound flushes while the buffer is at the flush threshold and
// merges while the LSM has a tier to collapse, repeating while either did
// work, then compacts. Each pass first takes any pending wake, since the
// pass covers it; the wakes of the round's own flushes and merges are
// taken that way too. It reports whether work is left for the retry timer:
// buffer garbage not compacted yet (a compaction ran too recently, or an
// open reader holds the horizon below it), or a flush or merge that
// failed, was shed or was aborted.
func (t *Table) maintenanceRound(ctx context.Context) (pending bool) {
	t.Stats.BackgroundRounds.Add(1)
	for ctx.Err() == nil {
		select {
		case <-t.kick:
		default:
		}
		flushed, retry := false, false
		if t.buffer.Len() >= t.cfg.FlushThreshold {
			n, err := t.Flush()
			flushed, retry = n > 0, err != nil
		}
		merged, mergeRetry := t.merge(ctx)
		pending = retry || mergeRetry
		if !flushed && !merged {
			break
		}
	}
	t.structMu.Lock()
	defer t.structMu.Unlock()
	t.maybeCompact()
	return pending || t.dirty.Load() || t.compactedTS < t.garbageTS
}

// installSegment adds a segment entry visible from ts. Callers run inside
// the commit/replay critical section. Unhydrated stubs (lazy restore) defer
// their secondary-index registration to hydration — the index can only be
// built from column values — and are counted so index probes know to wait.
func (t *Table) installSegment(ts uint64, seg *colstore.Segment, run int, file string, deleted *bitmap.Bitmap) {
	meta := colstore.NewMeta(seg, run, file)
	if deleted != nil {
		meta = meta.CloneWithDeleted(deleted.Clone())
	}
	e := &segEntry{createTS: ts}
	e.versions.Store(&metaVersion{ts: ts, meta: meta})
	hydrated := seg.Hydrated()
	if !hydrated {
		e.stub.Store(true)
		t.unhydrated.Add(1)
	}
	t.segMu.Lock()
	t.segs[seg.ID] = e
	if seg.ID >= t.nextSeg.Load() {
		t.nextSeg.Store(seg.ID + 1)
	}
	if int64(run) >= t.nextRun.Load() {
		t.nextRun.Store(int64(run) + 1)
	}
	t.segMu.Unlock()
	if hydrated {
		t.idx.AddSegment(seg)
	}
}

// dropSegment retires a segment at ts (after a merge). remap, when the
// primary's merge supplies one, is stored before the segment reads as
// retired, so a move that finds it retired can chase its rows. The
// decoded-vector cache drops the segment's vectors immediately; a scan at
// an older snapshot that is still reading the segment stays correct
// (segment payloads are immutable) and anything it re-inserts is reclaimed
// by normal LRU pressure. Unique-key probes of an older snapshot miss the
// rows it holds here once the index entries are gone; dropTS, set before
// the entries go, tells them to retry on a fresh snapshot (liveByKey).
func (t *Table) dropSegment(ts uint64, id uint64, remap []remapTarget) {
	t.segMu.RLock()
	e := t.segs[id]
	t.segMu.RUnlock()
	if e == nil {
		return
	}
	if remap != nil {
		e.remap.Store(&remap)
	}
	e.dropTS.Store(ts)
	t.idx.DropSegment(id)
	// A stub dropped before hydration leaves the live-stub count: the
	// CAS loses against a concurrent hydration, so the counter decrements
	// exactly once either way.
	if e.stub.CompareAndSwap(true, false) {
		t.unhydrated.Add(-1)
	}
	if t.cfg.Tenant.Cache != nil {
		t.cfg.Tenant.Cache.InvalidateSegment(e.latestMeta().Seg)
	}
}

// applySegDeletes installs new deleted-bits versions at ts for the given
// (segment, offsets) sets, chasing merge remaps when a target segment was
// retired between the caller's scan and this commit (§4.2), and returns
// the resolved sets: the rows whose bits it set. Callers run inside the
// commit/replay critical section.
func (t *Table) applySegDeletes(ts uint64, segDel map[uint64][]int32) map[uint64][]int32 {
	if len(segDel) == 0 {
		return segDel
	}
	// Resolve remapped targets level by level until every offset lands in a
	// live segment. A worklist (rather than per-segment recursion) is
	// required for correctness, not just style: two chase branches can
	// legitimately funnel offsets into the same retired segment (fan-in
	// across chained merges), so batches must merge instead of being
	// deduplicated away. Each level only reaches segments created by a
	// strictly later merge, so a well-formed remap graph terminates within
	// len(t.segs) levels; the depth guard turns a corrupt cyclic graph into
	// dropped offsets instead of an unbounded loop.
	t.segMu.RLock()
	maxDepth := len(t.segs) + 1
	t.segMu.RUnlock()
	resolved := make(map[uint64][]int32, len(segDel))
	pending := segDel
	for depth := 0; len(pending) > 0 && depth < maxDepth; depth++ {
		next := map[uint64][]int32{}
		for id, offs := range pending {
			t.segMu.RLock()
			e := t.segs[id]
			t.segMu.RUnlock()
			if e == nil {
				continue
			}
			if e.dropTS.Load() == 0 {
				resolved[id] = append(resolved[id], offs...)
				continue
			}
			rm := e.remap.Load()
			if rm == nil {
				continue // dropped with no survivors: rows already gone
			}
			for _, o := range offs {
				if int(o) < len(*rm) {
					if tgt := (*rm)[o]; tgt.off >= 0 {
						next[tgt.seg] = append(next[tgt.seg], tgt.off)
					}
				}
			}
		}
		pending = next
	}
	for id, offs := range resolved {
		t.segMu.RLock()
		e := t.segs[id]
		t.segMu.RUnlock()
		if e == nil {
			continue
		}
		cur := e.latestMeta()
		nd := cur.Deleted.Clone()
		for _, o := range offs {
			nd.Set(int(o))
		}
		v := &metaVersion{ts: ts, meta: cur.CloneWithDeleted(nd)}
		v.prev.Store(e.versions.Load())
		e.versions.Store(v)
	}
	return resolved
}

// Flush converts up to MaxSegmentRows buffered rows into a columnstore
// segment in a single transaction (§2.1.2): the rows are tombstoned in the
// buffer and the segment installed at the same commit timestamp, so logical
// table contents never change. Rows locked by active writers are skipped.
// It returns the number of rows flushed.
func (t *Table) Flush() (int, error) {
	t.structMu.Lock()
	defer t.structMu.Unlock()
	readTS := t.committer.ReadTS()
	var keys [][]byte
	t.buffer.Scan(nil, nil, readTS, func(k []byte, _ types.Row) bool {
		keys = append(keys, append([]byte(nil), k...))
		return len(keys) < t.cfg.MaxSegmentRows
	})
	if len(keys) == 0 {
		return 0, nil
	}
	tx := t.buffer.Begin(readTS)
	builder := colstore.NewBuilder(t.schema)
	var delKeys [][]byte
	for _, k := range keys {
		row, existed, err := tx.TryDeleteLatest(k)
		if err == rowstore.ErrRowLocked || !existed && err == nil {
			continue // busy or concurrently deleted; next flush gets it
		}
		if err != nil {
			tx.Abort()
			return 0, fmt.Errorf("flush %s: %w", t.name, err)
		}
		builder.Add(row.Clone())
		delKeys = append(delKeys, k)
	}
	if builder.Len() == 0 {
		tx.Abort()
		return 0, nil
	}
	segID := t.nextSeg.Add(1) - 1
	seg := builder.Build(segID)
	run := int(t.nextRun.Add(1) - 1)
	file := fmt.Sprintf("%s/seg-%08d-lp%08d", t.name, segID, t.log.Head())
	segBytes := seg.Encode()
	if err := t.files.SaveFile(file, segBytes); err != nil {
		tx.Abort()
		return 0, fmt.Errorf("flush %s: save file: %w", t.name, err)
	}
	t.commit(wal.KindFlush, tx, &mutation{
		DeleteKeys: delKeys,
		NewSegs:    []segInstall{{File: file, Run: run, SegBytes: segBytes, seg: seg}},
	})
	t.Stats.Flushes.Add(1)
	t.maybeCompact()
	return seg.NumRows, nil
}

// Merge runs one step of the background merger (§2.1.2): when the LSM has
// too many sorted runs it merges them into new segments, preserving logical
// contents. Deletes that commit between the merge's scan and its install
// are carried onto the outputs through the merge's remaps, so merges never
// block update or delete transactions (§4.2). It reports whether a merge
// happened.
//
// Only the install commit runs under structMu. The expensive part — the
// columnar k-way merge, output encoding, and data-file writes — runs
// outside it, which is safe because segment payloads and captured deleted
// bitmaps are immutable (deletes install *new* meta versions, and the
// install carries them over), flushes only create new runs, and mergeMu
// keeps a second merge from retiring our inputs. Output segments build and
// persist on cfg.MergeWorkers goroutines.
func (t *Table) Merge() bool {
	merged, _ := t.merge(context.Background())
	return merged
}

// merge is Merge under ctx, which bounds its admission and hydration
// waits. retry reports a merge that was planned but did not happen — shed,
// not admitted, a failed input fetch, or an aborted persist — and that the
// maintenance loop must try again without a further write.
func (t *Table) merge(ctx context.Context) (merged, retry bool) {
	t.mergeMu.Lock()
	defer t.mergeMu.Unlock()

	// Gather live segments per run at the scan snapshot.
	readTS := t.pinLatest()
	t.segMu.RLock()
	runSizes := map[int]int{}
	byRun := map[int][]uint64{}
	runSegs := map[int][]*colstore.Segment{}
	for id, e := range t.segs {
		m := e.metaAt(readTS)
		if m == nil || e.dropTS.Load() != 0 {
			continue
		}
		runSizes[m.Run] += m.LiveRows()
		byRun[m.Run] = append(byRun[m.Run], id)
		runSegs[m.Run] = append(runSegs[m.Run], m.Seg)
	}
	t.segMu.RUnlock()
	t.unpin(readTS)
	// Cache-aware planning: score each run by its decoded-vector cache
	// footprint so ties prefer cold runs and merges keep their hands off
	// the hottest cached vectors.
	var heatOf func(run int) int64
	if vr, ok := t.cfg.Tenant.Cache.(VectorResidency); ok {
		heatOf = func(run int) (heat int64) {
			for _, seg := range runSegs[run] {
				bytes, hits := vr.SegmentHeat(seg)
				heat += bytes + 1024*hits
			}
			return heat
		}
	}
	plan := planMerge(runSizes, t.cfg.MergeFanout, heatOf)
	if plan == nil {
		return false, false
	}

	// QoS admission: lease merge-I/O budget (≈ output bytes in flight)
	// from this partition's tenant before the expensive build/persist
	// phase. A shed — or a tenant so contended the lease doesn't clear
	// within the bounded wait — skips the merge, and the maintenance loop
	// retries on its timer, which is exactly the throttling the governor
	// wants.
	if t.cfg.Tenant.Gov != nil {
		var est int64
		for _, run := range plan.Runs {
			est += int64(runSizes[run])
		}
		est *= int64(len(t.schema.Columns)) * 8
		if est < 1 {
			est = 1
		}
		actx, cancel := context.WithTimeout(ctx, mergeAdmissionWait)
		lease, _, err := t.cfg.Tenant.Gov.AcquireUpTo(actx, t.cfg.Tenant.Name, qos.MergeIO, est/4+1, est)
		cancel()
		if err != nil {
			return false, true
		}
		defer lease.Release()
	}

	// Scan phase: capture each input's meta (payload + deleted bitmap); the
	// merger drops the rows deleted here, so only deletes that land while
	// we merge have an output location to carry to. The captured bitmaps
	// are immutable — later deletes clone into new meta versions — so
	// reading them off-lock is safe.
	runs := make([][]*colstore.Meta, 0, len(plan.Runs))
	for _, run := range plan.Runs {
		metas := make([]*colstore.Meta, 0, len(byRun[run]))
		for _, id := range byRun[run] {
			t.segMu.RLock()
			e := t.segs[id]
			t.segMu.RUnlock()
			metas = append(metas, e.latestMeta())
		}
		runs = append(runs, metas)
	}
	// Merging reads input payloads: demand-hydrate any stubs in the plan
	// (parallel on the hydration workers) before the k-way merge starts. A
	// failed fetch abandons this merge attempt; the inputs stay untouched
	// and a later merge retries.
	if t.unhydrated.Load() != 0 {
		h := t.hydrator()
		for _, metas := range runs {
			if err := h.waitAll(ctx, metas); err != nil {
				t.Stats.setMergeError(fmt.Errorf("merge %s: %w", t.name, err))
				return false, true
			}
		}
	}
	var src colstore.VectorSource
	if s, ok := t.cfg.Tenant.Cache.(colstore.VectorSource); ok {
		src = s
	}
	merger := colstore.NewKMerge(runs, t.schema, t.cfg.MaxSegmentRows, src)

	// Allocate output identities up front: ids ascend in key order so
	// SnapshotAt's sort-by-ID keeps scan order deterministic.
	newRun := int(t.nextRun.Add(1) - 1)
	nOut := merger.NumOutputs()
	m := &mutation{NewSegs: make([]segInstall, nOut)}
	ids := make([]uint64, nOut)
	logHead := t.log.Head()
	for i := range ids {
		ids[i] = t.nextSeg.Add(1) - 1
		m.NewSegs[i] = segInstall{File: fmt.Sprintf("%s/seg-%08d-lp%08d", t.name, ids[i], logHead), Run: newRun}
	}

	// Build, encode, and persist outputs in parallel.
	workers := t.cfg.MergeWorkers
	if workers > nOut {
		workers = nOut
	}
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
		saved    = make([]atomic.Bool, nOut)
		work     = make(chan int)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				out := &m.NewSegs[i]
				b := merger.BuildOutput(i, ids[i]).Encode()
				// Install the output in its decoded form: it is what a
				// reload of the data file produces, owns compact memory,
				// and is hydrated, so no reader waits on a fetch for it.
				seg, err := colstore.Decode(b, t.schema)
				if err == nil {
					// Index now, off every lock: the install commit then
					// finds the output indexed. Entries of a segment no
					// view holds yet are ignored by probes.
					t.idx.AddSegment(seg)
					err = t.files.SaveFile(out.File, b)
				}
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("merge %s: save %s: %w", t.name, out.File, err)
					}
					errMu.Unlock()
					continue
				}
				out.seg, out.SegBytes = seg, b
				saved[i].Store(true)
			}
		}()
	}
	for i := 0; i < nOut; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		// Abort: delete every output that made it to the store so a failed
		// merge leaks no orphan blobs, record the cause, and leave the
		// inputs untouched for a later retry.
		for i, out := range m.NewSegs {
			t.idx.DropSegment(ids[i])
			if saved[i].Load() {
				t.files.RemoveFile(out.File) //nolint:errcheck // best-effort cleanup on abort
			}
		}
		t.Stats.MergeAborts.Add(1)
		t.Stats.setMergeError(firstErr)
		return false, true
	}

	// Retire the inputs with the merger's chunk-relative remaps translated
	// into segment-id remaps; apply carries the deletes that landed on the
	// inputs after our scan through them (§4.2's reordering rule, applied
	// from the merge's side).
	inputs := merger.Inputs()
	for i, locs := range merger.Remaps() {
		rt := make([]remapTarget, len(locs))
		for j, l := range locs {
			if l.Seg < 0 {
				rt[j] = remapTarget{off: -1}
			} else {
				rt[j] = remapTarget{seg: ids[l.Seg], off: l.Off}
			}
		}
		m.DropSegs = append(m.DropSegs, inputs[i].Seg.ID)
		m.remaps = append(m.remaps, rt)
	}
	t.structMu.Lock()
	t.commit(wal.KindMerge, nil, m)
	t.structMu.Unlock()
	t.Stats.Merges.Add(1)
	return true, false
}

// planMerge is colstore.PickMerge with heat fetched only where it can
// change the plan. Without heat, PickMerge picks the same tier and returns
// every run in it; heat only chooses among the runs of a tier holding more
// than fanout of them. So the plan without heat decides whether there is a
// merge at all, and heatOf (nil: no heat) is called for that tier's runs
// alone.
func planMerge(runSizes map[int]int, fanout int, heatOf func(run int) int64) *colstore.MergePlan {
	plan := colstore.PickMerge(runSizes, fanout, nil)
	if plan == nil || heatOf == nil || len(plan.Runs) <= fanout {
		return plan
	}
	heat := make(map[int]int64, len(plan.Runs))
	for _, run := range plan.Runs {
		heat[run] = heatOf(run)
	}
	return colstore.PickMerge(runSizes, fanout, heat)
}

// maybeCompact physically removes tombstoned buffer nodes left behind by
// flushes and trims MVCC version chains, the buffer's and the segment
// metadata's, at the reader horizon: the oldest timestamp a view or a
// write statement still reads at, or the published one when none is
// older. It runs at most once per compactPeriod, and not at all when
// nothing was written and the horizon has not moved since the last one. A
// compaction clears dirty and moves garbageTS up to the published
// timestamp: the commits it covers are the ones whose garbage may survive
// a compaction at an older keepTS. Callers hold structMu.
func (t *Table) maybeCompact() {
	now := time.Now()
	if now.Sub(t.lastCompact) < compactPeriod {
		return
	}
	keepTS := t.readers.horizon(t.committer)
	// A commit that ran wakeAfter before this swap had published, so its
	// timestamp is at most the ReadTS read after it; one that runs it later
	// finds dirty clear, sets it and wakes the loop.
	if t.dirty.Swap(false) {
		t.garbageTS = t.committer.ReadTS()
	} else if keepTS == t.compactedTS {
		return
	}
	t.lastCompact = now
	t.buffer.Compact(keepTS)
	t.segMu.RLock()
	for _, e := range t.segs {
		e.trimVersions(keepTS)
	}
	t.segMu.RUnlock()
	t.compactedTS = keepTS
}
