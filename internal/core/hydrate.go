package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"s2db/internal/colstore"
)

// ErrTableClosed is returned by hydration waits interrupted by Table.Close.
var ErrTableClosed = errors.New("core: table closed")

// FileLoaderCtx is an optional FileStore extension: a context-aware load
// whose cancellation abandons the caller's wait without aborting a shared
// in-flight blob fetch (other waiters and the cache still get the result).
// The cluster's blob-backed file store implements it via
// blob.FileCache.GetCtx; stores without it fall back to LoadFile.
type FileLoaderCtx interface {
	LoadFileCtx(ctx context.Context, name string) ([]byte, error)
}

func (t *Table) loadFileCtx(ctx context.Context, name string) ([]byte, error) {
	if fs, ok := t.files.(FileLoaderCtx); ok {
		return fs.LoadFileCtx(ctx, name)
	}
	return t.files.LoadFile(name)
}

// hydroTask is one segment's pending payload fetch. It is single-flight:
// tasks is keyed by segment ID, so any number of demanding scans and the
// restore readahead share one fetch+decode. done closes when the attempt
// finishes; on failure the task is removed from the map first, so the next
// demand retries with a fresh task.
type hydroTask struct {
	seg  *colstore.Segment
	file string
	// demanded marks a scan blocked on this segment: demanded tasks jump
	// the readahead queue and are fetched even after the segment is
	// dropped (an old-snapshot reader still needs the payload).
	demanded bool
	// claimed marks the task as taken by a worker; queue entries that were
	// re-prioritized leave a claimed or demanded shadow behind that pops
	// skip.
	claimed bool
	done    chan struct{}
	err     error
}

// hydrationWorkers bounds the goroutines fetching and decoding one table's
// stub-segment payloads (parallel single-flight FileStore loads).
const hydrationWorkers = 8

// hydrator fetches and decodes stub-segment payloads for one table through
// a bounded worker pool. Two queues feed the workers: demand (scans blocked
// on a specific segment; always served first) and readahead (restore and
// scan prefetch in view order). It is created lazily by Table.hydrator()
// the first time a stub exists, and stopped by Table.Close.
type hydrator struct {
	t      *Table
	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	tasks     map[uint64]*hydroTask
	demand    []*hydroTask
	readahead []*hydroTask

	wake    chan struct{}
	stopped chan struct{}
	wg      sync.WaitGroup
}

func newHydrator(t *Table) *hydrator {
	ctx, cancel := context.WithCancel(context.Background())
	h := &hydrator{
		t:       t,
		ctx:     ctx,
		cancel:  cancel,
		tasks:   make(map[uint64]*hydroTask),
		wake:    make(chan struct{}, 1),
		stopped: make(chan struct{}),
	}
	for w := 0; w < hydrationWorkers; w++ {
		h.wg.Add(1)
		go h.worker()
	}
	return h
}

func (h *hydrator) stop() {
	h.cancel()
	close(h.stopped)
	h.wg.Wait()
}

func (h *hydrator) wakeUp() {
	select {
	case h.wake <- struct{}{}:
	default:
	}
}

// ensure registers (or re-prioritizes) the single-flight task for a
// segment. A demand on a queued readahead task moves it to the demand
// class; a demand on a task already claimed by a worker just marks it so
// the worker will not skip it. joined reports that the task already
// existed.
func (h *hydrator) ensure(seg *colstore.Segment, file string, demand bool) (task *hydroTask, joined bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if task, ok := h.tasks[seg.ID]; ok {
		if demand && !task.demanded {
			task.demanded = true
			if !task.claimed {
				// Jump the queue: the readahead copy becomes a shadow that
				// pops skip (it is demanded but owned by the demand queue).
				h.demand = append(h.demand, task)
				h.wakeUp()
			}
		}
		return task, true
	}
	task = &hydroTask{seg: seg, file: file, demanded: demand, done: make(chan struct{})}
	h.tasks[seg.ID] = task
	if demand {
		h.demand = append(h.demand, task)
	} else {
		h.readahead = append(h.readahead, task)
	}
	h.wakeUp()
	return task, false
}

// prefetch queues a readahead fetch if the segment is cold and not already
// queued or in flight.
func (h *hydrator) prefetch(m *colstore.Meta) {
	if m.Seg.Hydrated() {
		return
	}
	h.ensure(m.Seg, m.File, false)
}

// popLocked returns the next task to run: the demand queue drains before
// any readahead. Caller holds mu.
func (h *hydrator) popLocked() *hydroTask {
	for len(h.demand) > 0 {
		task := h.demand[0]
		h.demand = h.demand[1:]
		if !task.claimed {
			task.claimed = true
			return task
		}
	}
	for len(h.readahead) > 0 {
		task := h.readahead[0]
		h.readahead = h.readahead[1:]
		if task.claimed || task.demanded {
			continue // shadow: the demand queue owns it now
		}
		task.claimed = true
		return task
	}
	return nil
}

func (h *hydrator) worker() {
	defer h.wg.Done()
	for {
		h.mu.Lock()
		task := h.popLocked()
		h.mu.Unlock()
		if task == nil {
			select {
			case <-h.wake:
				continue
			case <-h.stopped:
				return
			}
		}
		h.run(task)
	}
}

// run performs one fetch+decode attempt. Dropped segments are skipped
// unless a scan demanded them (a reader at a pre-merge snapshot still needs
// the payload); everything else fetches through the table's file store —
// context-aware when the store supports it — and adopts the payload into
// the stub in place.
func (h *hydrator) run(task *hydroTask) {
	t := h.t
	seg := task.seg
	if seg.Hydrated() {
		h.finish(task, nil)
		return
	}
	h.mu.Lock()
	demanded := task.demanded
	h.mu.Unlock()
	if !demanded && t.segmentDropped(seg.ID) {
		// A merge or replayed drop retired the stub before any reader
		// needed it: release its slot without fetching. A later demand
		// re-registers a fresh task and does fetch.
		h.finish(task, nil)
		return
	}
	data, err := t.loadFileCtx(h.ctx, task.file)
	if err == nil {
		var decoded *colstore.Segment
		decoded, err = colstore.Decode(data, t.schema)
		if err == nil && (decoded.ID != seg.ID || decoded.NumRows != seg.NumRows) {
			err = fmt.Errorf("payload %d/%d rows does not match stub %d/%d rows", decoded.ID, decoded.NumRows, seg.ID, seg.NumRows)
		}
		if err == nil {
			// Index before the payload mark goes up: wait and
			// ensureProbeReady return on the mark alone, and their callers
			// probe the index at once. A segment a merge already retired
			// stays out — the merge removed its entries for good.
			if !t.segmentDropped(seg.ID) {
				t.idx.AddSegment(decoded)
			}
			seg.AdoptPayload(decoded)
		}
	}
	if err != nil {
		t.Stats.HydrationErrors.Add(1)
		h.finish(task, fmt.Errorf("hydrate %s: segment file %s: %w", t.name, task.file, err))
		return
	}
	t.Stats.Hydrations.Add(1)
	t.noteHydrated(seg)
	h.finish(task, nil)
}

// finish completes a task: the map entry is removed before done closes, so
// a failed segment is immediately retryable by the next demand.
func (h *hydrator) finish(task *hydroTask, err error) {
	h.mu.Lock()
	if h.tasks[task.seg.ID] == task {
		delete(h.tasks, task.seg.ID)
	}
	task.err = err
	h.mu.Unlock()
	close(task.done)
}

// wait blocks until the segment is hydrated, ctx is cancelled, or the
// fetch fails terminally. Cancellation abandons only this caller's wait;
// the fetch keeps running for other waiters. A failure of a task the
// caller joined may predate the call (a readahead fetch begun while the
// store was down), so it earns one fresh attempt of the caller's own.
func (h *hydrator) wait(ctx context.Context, m *colstore.Meta) error {
	for retried := false; ; {
		if m.Seg.Hydrated() {
			return nil
		}
		task, joined := h.ensure(m.Seg, m.File, true)
		select {
		case <-task.done:
			if m.Seg.Hydrated() {
				return nil
			}
			if task.err != nil {
				if !joined || retried {
					return task.err
				}
				retried = true
			}
			// A joined task failed, or the worker skipped a dropped
			// readahead before our demand flag landed; loop: the fresh task
			// is demanded from birth.
		case <-ctx.Done():
			return ctx.Err()
		case <-h.stopped:
			return ErrTableClosed
		}
	}
}

// waitAll demand-hydrates every cold segment in metas and blocks until all
// are resident (the worker pool fetches them in parallel).
func (h *hydrator) waitAll(ctx context.Context, metas []*colstore.Meta) error {
	for _, m := range metas {
		if !m.Seg.Hydrated() {
			h.ensure(m.Seg, m.File, true)
		}
	}
	for _, m := range metas {
		if err := h.wait(ctx, m); err != nil {
			return err
		}
	}
	return nil
}

// hydrator returns the table's hydrator, creating and starting it on first
// use (tables that never install stubs never spawn the worker pool).
func (t *Table) hydrator() *hydrator {
	if h := t.hydr.Load(); h != nil {
		return h
	}
	t.hydrOnce.Do(func() {
		t.hydr.Store(newHydrator(t))
	})
	return t.hydr.Load()
}

// segmentDropped reports whether the segment entry is gone or retired at
// the latest timestamp.
func (t *Table) segmentDropped(id uint64) bool {
	t.segMu.RLock()
	e := t.segs[id]
	t.segMu.RUnlock()
	return e == nil || e.dropTS.Load() != 0
}

// noteHydrated releases a hydrated stub from the live-stub accounting that
// gates index probes; run indexed it before adopting the payload.
func (t *Table) noteHydrated(seg *colstore.Segment) {
	t.segMu.RLock()
	e := t.segs[seg.ID]
	t.segMu.RUnlock()
	if e != nil && e.stub.CompareAndSwap(true, false) {
		t.unhydrated.Add(-1)
	}
}

// ensureProbeReady blocks until every live segment is hydrated and indexed.
// Index probes (unique-key enforcement, indexed updates/deletes, point
// lookups) need the secondary indexes to cover every live row, and stubs
// are indexed only at hydration — so the first write/probe against a
// lazily-restored table pays for full hydration, while reads stay lazy.
// On a warm table this is one atomic load.
func (t *Table) ensureProbeReady() error {
	if t.unhydrated.Load() == 0 {
		return nil
	}
	view := t.SnapshotAt(t.committer.Oracle().ReadTS())
	return t.hydrator().waitAll(context.Background(), view.Segs)
}

// Hydrated reports whether every segment in the view has its payload
// resident.
func (v *View) Hydrated() bool {
	for _, m := range v.Segs {
		if !m.Seg.Hydrated() {
			return false
		}
	}
	return true
}

// HydrateSegment blocks until the view's si-th segment is hydrated,
// demand-prioritized ahead of all readahead, and queues the rest of the
// view (in view order) behind it — the scan's remaining segments prefetch
// while it processes this one. Cancelling ctx abandons the wait but never
// the shared fetch.
func (v *View) HydrateSegment(ctx context.Context, si int) error {
	m := v.Segs[si]
	if m.Seg.Hydrated() {
		return nil
	}
	h := v.table.hydrator()
	for _, later := range v.Segs[si+1:] {
		h.prefetch(later)
	}
	return h.wait(ctx, m)
}

// HydrateAll blocks until every segment in the view is resident, fetching
// cold ones in parallel on the hydration workers. Restore-to-warm helpers
// and the equivalence harness use it; normal scans hydrate on demand.
func (v *View) HydrateAll(ctx context.Context) error {
	if v.Hydrated() {
		return nil
	}
	return v.table.hydrator().waitAll(ctx, v.Segs)
}

// WaitHydrated blocks until every segment live at the latest snapshot is
// resident: "return only when everything is loaded" for callers of the
// O(manifest) RestoreState that need it.
func (t *Table) WaitHydrated(ctx context.Context) error {
	if t.unhydrated.Load() == 0 {
		return nil
	}
	return t.Snapshot().HydrateAll(ctx)
}
