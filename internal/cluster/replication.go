package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"s2db/internal/qos"
	"s2db/internal/wal"
)

// ErrLinkDown reports a replication link that gave up: either the master
// truncated past the replica's position so no subscription can resume, or
// the link exhausted its reconnect budget without making progress, or the
// catch-up from blob that had to come first failed. The owner must
// rebuild the replica out of band — a workspace heals it by re-attaching
// (WaitCaughtUp), which catches up from blob-staged log chunks, exactly
// like a slow-consumer detach.
var ErrLinkDown = errors.New("cluster: replication link down")

// ErrDiverged reports a copy that applied records past its master's log
// head — a workspace that heard records from a failed master that the
// promoted replica never received. The new master writes other records at
// those LSNs, so the copy cannot resume; only a fresh workspace rebuilds it.
var ErrDiverged = errors.New("cluster: copy diverged from its master")

const (
	// DefaultLinkStallTimeout is how long a link tolerates shipped-but-
	// unacknowledged pages with no progress before it assumes the session
	// lost a frame and reconnects (Config.LinkStallTimeout overrides).
	DefaultLinkStallTimeout = 500 * time.Millisecond

	linkBackoffMin = time.Millisecond
	linkBackoffMax = 50 * time.Millisecond
	// maxLinkAttempts bounds consecutive reconnects with zero apply
	// progress before the link turns terminally ErrLinkDown. With capped
	// backoff this rides out partitions of a couple of seconds.
	maxLinkAttempts = 40
)

// fatalLinkError marks a session error as terminal: reconnecting cannot
// help (slow-consumer detach, apply failure). Everything else a session
// reports is transient and handled by reconnect-with-resume.
type fatalLinkError struct{ err error }

func (e fatalLinkError) Error() string { return e.err.Error() }
func (e fatalLinkError) Unwrap() error { return e.err }

// Link streams one master partition's log to a replica partition in whole
// pages over a Transport session: a sealed page ships as soon as the
// master seals it — before its transactions "commit" in any global sense —
// which is the out-of-order/early replication property that keeps commit
// latency low and predictable (§3). Each page pays the injected hop
// latency once and sync links ack once per page (in-memory durability)
// before applying, so commit cost amortizes across every writer whose
// records share the page.
//
// A link survives transport faults: if its session errors, or shipped
// pages stop making progress (a lost frame, a partition), it tears the
// session down and reconnects with bounded exponential backoff, resuming
// from the replica's applied LSN. Duplicate deliveries are trimmed against
// that watermark and re-acked; gaps force a resume. Only a slow-consumer
// detach, an apply failure or reconnect exhaustion is terminal.
type Link struct {
	master  *Partition
	replica *Partition
	syncAck bool
	latency time.Duration
	stall   time.Duration
	id      int
	tr      Transport
	// pacer, when non-nil, is installed on every subscription this link
	// opens (initial and resumed): it bills each shipped page's bytes to a
	// bandwidth budget before delivery. A pacer error ends the session
	// terminally (the subscription fails with it), like a slow-consumer
	// detach.
	pacer func(bytes int) error

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu         sync.Mutex
	sub        *wal.Subscription // live session's subscription, for lag reporting
	err        error             // first terminal error
	ended      chan struct{}     // closed when err is set
	reconnects int

	sent  atomic.Uint64 // highest EndLSN handed to the transport
	acked atomic.Uint64 // highest ack heard back from the replica side
}

// startLink starts follower f's link from f's applied position; attach is
// its only caller. An HA replica's link acks the master and is never paced:
// throttling the durability path would turn a noisy tenant into everyone's
// commit latency. A workspace's link bills each page to its tenant's
// WAL-bandwidth budget on the sender (never under the log mutex), so an
// over-budget workspace slows or sheds only its own stream. Given a
// non-nil down (a failed catch-up), or a position below the master's log
// base (ErrLinkDown) or past its head (ErrDiverged), it returns a link
// that is down with that error and runs nothing.
func (c *Cluster) startLink(master *Partition, f *follower, down error) *Link {
	l := &Link{
		master: master, replica: f.part, syncAck: f.ws == nil, latency: c.cfg.ReplicationLatency,
		stall: c.cfg.LinkStallTimeout, id: c.replicaID(), tr: c.cfg.Transport, stop: make(chan struct{}),
		ended: make(chan struct{}),
	}
	if f.ws != nil && f.ws.tenant.Gov != nil {
		t := f.ws.tenant
		l.pacer = func(bytes int) error {
			return t.Gov.Consume(context.Background(), t.Name, qos.WALBand, int64(bytes))
		}
	}
	from, head := f.part.Applied(), master.Log().Head()
	if down == nil && from > head {
		down = fmt.Errorf("%w: applied %d, master head %d", ErrDiverged, from, head)
	}
	if down != nil {
		l.fail(down)
		return l
	}
	sub, err := master.Log().Subscribe(from)
	if err != nil {
		l.fail(fmt.Errorf("%w: %v", ErrLinkDown, err))
		return l
	}
	if l.pacer != nil {
		sub.SetPacer(l.pacer)
	}
	l.setSub(sub)
	l.wg.Add(1)
	go l.run(sub)
	return l
}

// run is the link supervisor: it runs sessions until one ends cleanly
// (Stop) or fatally, reconnecting after transient failures with bounded
// backoff and resuming from the replica's applied position.
func (l *Link) run(sub *wal.Subscription) {
	defer l.wg.Done()
	backoff := linkBackoffMin
	attempts := 0
	for {
		if sub == nil {
			from := l.replica.Applied()
			s, err := l.master.Log().Subscribe(from)
			if err != nil {
				// The master truncated past the resume point while the
				// session was down; only a blob resync can rebuild it.
				l.fail(fmt.Errorf("%w: resubscribe at %d: %v", ErrLinkDown, from, err))
				return
			}
			if l.pacer != nil {
				s.SetPacer(l.pacer)
			}
			sub = s
			l.setSub(sub)
		}
		before := l.replica.Applied()
		err := l.runSession(sub)
		sub = nil
		l.setSub(nil)
		if err == nil {
			return // stopped
		}
		var fatal fatalLinkError
		if errors.As(err, &fatal) {
			l.fail(fatal.err)
			return
		}
		if l.replica.Applied() > before {
			// The session moved the replica forward; a fault now is fresh,
			// not the same one persisting. Reset the budget.
			attempts = 0
			backoff = linkBackoffMin
		}
		attempts++
		if attempts > maxLinkAttempts {
			l.fail(fmt.Errorf("%w: no progress after %d reconnects: %v", ErrLinkDown, attempts-1, err))
			return
		}
		l.mu.Lock()
		l.reconnects++
		l.mu.Unlock()
		if !l.sleepStop(backoff) {
			return
		}
		backoff *= 2
		if backoff > linkBackoffMax {
			backoff = linkBackoffMax
		}
	}
}

// runSession opens one transport session and pumps it with three workers:
// a sender (log pages out), an ack loop (replica acks back into the
// master's durability watermark) and a receiver (apply pages, emit acks).
// It returns nil only when the link is stopping; any other outcome is an
// error for the supervisor to classify.
func (l *Link) runSession(sub *wal.Subscription) error {
	mc, rc, err := l.tr.Open()
	if err != nil {
		sub.Cancel()
		return err
	}
	errCh := make(chan error, 3)
	var wg sync.WaitGroup
	wg.Add(3)
	go l.sender(&wg, sub, mc, errCh)
	go l.ackLoop(&wg, mc, errCh)
	go l.receiver(&wg, rc, errCh)

	var sessionErr error
	stopped := false
	tick := l.stall / 2
	if tick <= 0 {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	lastProgress := l.progress()
	lastChange := time.Now()
supervise:
	for {
		select {
		case <-l.stop:
			stopped = true
			break supervise
		case sessionErr = <-errCh:
			break supervise
		case <-ticker.C:
			p := l.progress()
			if p != lastProgress {
				lastProgress, lastChange = p, time.Now()
				continue
			}
			if l.sent.Load() > p && time.Since(lastChange) >= l.stall {
				// Pages shipped but neither applied nor acked for a full
				// stall window: assume the session lost a frame.
				sessionErr = fmt.Errorf("cluster: link %d stalled: shipped %d, progress %d", l.id, l.sent.Load(), p)
				break supervise
			}
		}
	}
	ticker.Stop()
	sub.Cancel()
	mc.Close()
	rc.Close()
	wg.Wait()
	// Prefer a fatal worker error over whatever tore the session down —
	// an apply failure must not be masked by the conn-closed errors the
	// teardown itself provokes.
	for drained := false; !drained; {
		select {
		case err := <-errCh:
			var fatal fatalLinkError
			if errors.As(err, &fatal) {
				sessionErr = err
			} else if sessionErr == nil {
				sessionErr = err
			}
		default:
			drained = true
		}
	}
	if stopped {
		var fatal fatalLinkError
		if errors.As(sessionErr, &fatal) {
			return sessionErr // surface even when racing Stop
		}
		return nil
	}
	return sessionErr
}

// sender pumps sealed pages from the subscription into the session,
// paying the configured hop latency once per page.
func (l *Link) sender(wg *sync.WaitGroup, sub *wal.Subscription, mc Conn, errCh chan<- error) {
	defer wg.Done()
	for {
		pg, ok := sub.NextPage()
		if !ok {
			// A budget detachment (slow consumer) is terminal; the owner
			// must re-attach after catching up from blob chunks. A plain
			// cancellation is session teardown, not an error.
			if err := sub.Err(); err != nil {
				errCh <- fatalLinkError{err}
			}
			return
		}
		pg.Uploaded = l.master.Uploaded()
		if l.latency > 0 {
			// One hop for the whole page — stop-aware, so Stop() never
			// waits out the backlog's worth of injected latency.
			if !l.sleepStop(l.latency) {
				return
			}
		}
		if err := mc.SendPage(pg); err != nil {
			errCh <- err
			return
		}
		if pg.EndLSN > l.sent.Load() {
			l.sent.Store(pg.EndLSN)
		}
	}
}

// ackLoop feeds replica acks into the master's durability watermark. Only
// sync links ack the master (§2); async workspace links still track the
// watermark for stall detection.
func (l *Link) ackLoop(wg *sync.WaitGroup, mc Conn, errCh chan<- error) {
	defer wg.Done()
	for {
		lsn, err := mc.RecvAck()
		if err != nil {
			errCh <- err
			return
		}
		if lsn > l.acked.Load() {
			l.acked.Store(lsn)
		}
		if l.syncAck {
			l.master.Ack(l.id, lsn)
		}
	}
}

// receiver applies incoming pages to the replica and emits acks.
func (l *Link) receiver(wg *sync.WaitGroup, rc Conn, errCh chan<- error) {
	defer wg.Done()
	// Announce the replica's position first: acks are cumulative, so a
	// fresh session's opening ack repairs any ack frames the previous
	// session lost (otherwise a dropped tail ack could stall commits
	// forever even though the replica applied everything).
	if err := rc.SendAck(l.replica.Applied()); err != nil {
		errCh <- err
		return
	}
	for {
		pg, err := rc.RecvPage()
		if err != nil {
			errCh <- err
			return
		}
		applied := l.replica.Applied()
		if pg.EndLSN <= applied {
			// Duplicate delivery (chaos, or resume overlap): apply nothing,
			// but re-ack so the master's watermark still hears about it.
			if err := rc.SendAck(applied); err != nil {
				errCh <- err
				return
			}
			continue
		}
		if pg.FirstLSN > applied {
			// A gap: an earlier page was lost in transit. Transient — the
			// supervisor reconnects and resumes from the applied watermark.
			errCh <- fmt.Errorf("cluster: link %d: page [%d,%d) arrived with replica at %d", l.id, pg.FirstLSN, pg.EndLSN, applied)
			return
		}
		if pg.FirstLSN < applied {
			pg.Records = pg.Records[applied-pg.FirstLSN:]
			pg.FirstLSN = applied
		}
		// Ack on receipt: the page is now "replicated in-memory" (§3) —
		// received by the replica process, not yet applied and not on disk
		// anywhere, which is exactly the durability a sync commit buys.
		// If the apply below fails, the master's durable watermark may
		// already cover LSNs this replica will never serve; that is why an
		// apply failure is terminal and surfaces through Err() and
		// Cluster.LinkErrors() instead of being swallowed.
		if err := rc.SendAck(pg.EndLSN); err != nil {
			errCh <- err
			return
		}
		if err := l.replica.ApplyPage(pg); err != nil {
			errCh <- fatalLinkError{err}
			return
		}
		l.replica.Log().TruncateBefore(l.keepFrom(pg.Uploaded))
	}
}

// keepFrom is the first LSN the replica's log must still hold once it has
// applied a page that carried the master's upload watermark uploaded. A
// sync replica may be promoted, and its stager then uploads from where
// blob ends, so it keeps what blob may not hold yet: min(uploaded,
// applied). A workspace keeps nothing it has applied: no one subscribes
// to it or promotes it, and it catches up from blob (catchUp).
func (l *Link) keepFrom(uploaded uint64) uint64 {
	applied := l.replica.Applied()
	if l.syncAck {
		return min(uploaded, applied)
	}
	return applied
}

// progress is the replica's acknowledged forward motion as the supervisor
// sees it: the lower of applied and acked, so a broken ack path counts as
// a stall even while applies continue.
func (l *Link) progress() uint64 {
	applied := l.replica.Applied()
	if acked := l.acked.Load(); acked < applied {
		return acked
	}
	return applied
}

// sleepStop sleeps d unless the link is stopped first.
func (l *Link) sleepStop(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-l.stop:
		return false
	case <-t.C:
		return true
	}
}

func (l *Link) setSub(s *wal.Subscription) {
	l.mu.Lock()
	l.sub = s
	l.mu.Unlock()
}

func (l *Link) fail(err error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
		close(l.ended)
	}
	l.mu.Unlock()
}

// Lag returns the number of records shipped but not yet consumed.
func (l *Link) Lag() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sub == nil {
		return 0
	}
	return l.sub.Lag()
}

// LagBytes returns the accounting bytes shipped but not yet consumed.
func (l *Link) LagBytes() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sub == nil {
		return 0
	}
	return l.sub.LagBytes()
}

// LagPages returns the pages shipped but not yet consumed.
func (l *Link) LagPages() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.sub == nil {
		return 0
	}
	return l.sub.LagPages()
}

// Err returns the link's terminal error, if any: wal.ErrSlowConsumer
// after a budget detach, ErrLinkDown after reconnect exhaustion, a lost
// resume point or a failed catch-up, ErrDiverged for a copy ahead of its
// master, or the apply error that killed the replica.
func (l *Link) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Reconnects returns how many times the link re-established its session
// after a transient fault.
func (l *Link) Reconnects() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.reconnects
}

// Stop tears the link down and waits for its workers to exit.
func (l *Link) Stop() {
	l.stopOnce.Do(func() { close(l.stop) })
	l.wg.Wait()
}
