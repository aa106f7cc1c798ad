package cluster

import (
	"bytes"
	"encoding/binary"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"s2db/internal/core"
	"s2db/internal/types"
	"s2db/internal/wal"
)

// withTCP returns a config mutation that routes replication over a fresh
// loopback TCP transport (closed by the cluster on Close).
func withTCP(t *testing.T) func(*Config) {
	t.Helper()
	return func(cfg *Config) {
		tr, err := NewTCPTransport()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Transport = tr
	}
}

// mildChaos is the seeded fault mix used across tests: every fault class
// on, at rates a link should ride out with a handful of reconnects.
func mildChaos(seed int64) ChaosConfig {
	return ChaosConfig{
		Seed:      seed,
		Drop:      0.02,
		Duplicate: 0.02,
		Reorder:   0.02,
		DelayMax:  200 * time.Microsecond,
	}
}

// withChaosTCP wraps a fresh TCP transport in seeded chaos and tightens
// the stall timeout so lost frames heal quickly.
func withChaosTCP(t *testing.T, seed int64) func(*Config) {
	t.Helper()
	return func(cfg *Config) {
		tr, err := NewTCPTransport()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Transport = NewChaosTransport(tr, mildChaos(seed))
		if cfg.LinkStallTimeout == 0 {
			cfg.LinkStallTimeout = 25 * time.Millisecond
		}
	}
}

func transportPage(first uint64, n int) wal.Page {
	recs := make([]wal.Record, n)
	bytes := 0
	for i := range recs {
		recs[i] = wal.Record{
			LSN: first + uint64(i), Kind: wal.KindInsert,
			CommitTS: uint64(i + 1), Wall: int64(i + 1),
			Data: []byte{byte(i), byte(i >> 8), 0xab},
		}
		bytes += wal.RecordSize(recs[i])
	}
	return wal.Page{FirstLSN: first, EndLSN: first + uint64(n), Bytes: bytes, Records: recs}
}

// TestTransportConnRoundTrip drives both transports at the Conn level:
// pages one way, acks the other, close unblocking a pending read.
func TestTransportConnRoundTrip(t *testing.T) {
	transports := map[string]func(t *testing.T) Transport{
		"memory": func(t *testing.T) Transport { return NewMemoryTransport() },
		"tcp": func(t *testing.T) Transport {
			tr, err := NewTCPTransport()
			if err != nil {
				t.Fatal(err)
			}
			return tr
		},
	}
	for name, mk := range transports {
		t.Run(name, func(t *testing.T) {
			tr := mk(t)
			defer tr.Close()
			mc, rc, err := tr.Open()
			if err != nil {
				t.Fatal(err)
			}
			want := transportPage(17, 3)
			sendErr := make(chan error, 1)
			go func() { sendErr <- mc.SendPage(want) }()
			got, err := rc.RecvPage()
			if err != nil {
				t.Fatal(err)
			}
			if err := <-sendErr; err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("page round trip mismatch:\n got %+v\nwant %+v", got, want)
			}
			if err := rc.SendAck(want.EndLSN); err != nil {
				t.Fatal(err)
			}
			lsn, err := mc.RecvAck()
			if err != nil {
				t.Fatal(err)
			}
			if lsn != want.EndLSN {
				t.Fatalf("ack = %d, want %d", lsn, want.EndLSN)
			}
			// Closing one half unblocks the peer's pending read.
			done := make(chan error, 1)
			go func() {
				_, err := rc.RecvPage()
				done <- err
			}()
			mc.Close()
			rc.Close()
			if err := <-done; err == nil {
				t.Fatal("RecvPage returned nil after close")
			}
			// A closed transport refuses new sessions.
			tr.Close()
			if _, _, err := tr.Open(); err == nil {
				t.Fatal("Open succeeded on closed transport")
			}
		})
	}
}

// The distributed suites, promoted to run over loopback TCP with
// assertions unchanged.
func TestFailoverOverTCP(t *testing.T)           { runFailoverSuite(t, withTCP(t)) }
func TestPITROverTCP(t *testing.T)               { runPITRSuite(t, withTCP(t)) }
func TestSlowConsumerResyncOverTCP(t *testing.T) { runSlowConsumerResyncSuite(t, withTCP(t)) }
func TestGroupCommitPagesOverTCP(t *testing.T) {
	runFailoverSuite(t, func(cfg *Config) { withTCP(t)(cfg); cfg.Log.FlushInterval = 200 * time.Microsecond })
}
func TestReplicationLatencyOverTCP(t *testing.T) {
	runFailoverSuite(t, func(cfg *Config) { withTCP(t)(cfg); cfg.ReplicationLatency = time.Millisecond })
}

// failoverStateWith runs a deterministic single-partition workload with
// two sync replicas, fails the master mid-way, writes more through the
// promoted master, and returns the serialized table state. Transports must
// not change a byte of it.
func failoverStateWith(t *testing.T, mutate func(*Config)) []byte {
	t.Helper()
	cfg := Config{Partitions: 1, SyncReplicas: 2}
	if mutate != nil {
		mutate(&cfg)
	}
	c := newTestCluster(t, cfg)
	for i := 0; i < 30; i++ {
		if _, err := c.Insert("items", []types.Row{row(i, i*3, "a")}, core.InsertOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	head := c.Master(0).Log().Head()
	for _, rep := range haReplicas(c, 0) {
		if err := rep.part.WaitApplied(head, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FailMaster(0); err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 110; i++ {
		if _, err := c.Insert("items", []types.Row{row(i, i, "b")}, core.InsertOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := c.Master(0).Table("items")
	if err != nil {
		t.Fatal(err)
	}
	return serializeLatest(tbl)
}

// TestTransportEquivalence asserts the distributed scenarios produce
// byte-identical state no matter which transport replication rode over:
// the wire codec and the chaos harness are delivery details, never
// semantics.
func TestTransportEquivalence(t *testing.T) {
	variants := []struct {
		name   string
		mutate func(*Config)
	}{
		{"memory", nil},
		{"tcp", withTCP(t)},
		{"tcp-chaos", withChaosTCP(t, 42)},
	}

	t.Run("failover", func(t *testing.T) {
		var base []byte
		for _, v := range variants {
			state := failoverStateWith(t, v.mutate)
			if base == nil {
				base = state
				continue
			}
			if !bytes.Equal(base, state) {
				t.Fatalf("%s failover state differs from %s", v.name, variants[0].name)
			}
		}
	})

	t.Run("pitr", func(t *testing.T) {
		// SyncReplicas puts the workload's durability on the transport
		// path; PITR then restores from the blob-staged log.
		withSync := func(mutate func(*Config)) func(*Config) {
			return func(cfg *Config) {
				cfg.SyncReplicas = 1
				if mutate != nil {
					mutate(cfg)
				}
			}
		}
		var base [][]byte
		for _, v := range variants {
			states := pitrStateUnder(t, 0, 0, withSync(v.mutate))
			if base == nil {
				base = states
				continue
			}
			for pi := range states {
				if !bytes.Equal(base[pi], states[pi]) {
					t.Fatalf("%s partition %d PITR state differs from %s", v.name, pi, variants[0].name)
				}
			}
		}
	})
}

// byteConn is a net.Conn whose reads come from a byte slice; it writes
// nothing.
type byteConn struct {
	net.Conn
	r *bytes.Reader
}

func (c byteConn) Read(p []byte) (int, error) { return c.r.Read(p) }
func (c byteConn) Close() error               { return nil }

// tcpFrame is a TCP transport frame of kind around payload.
func tcpFrame(kind byte, payload []byte) []byte {
	buf := append([]byte{kind}, binary.BigEndian.AppendUint32(nil, uint32(len(payload)))...)
	return append(buf, payload...)
}

// FuzzReadFrame holds the TCP transport's frame reader to the decoder
// contract (DESIGN.md §17) on socket bytes: RecvPage and RecvAck, each
// reading frames until the first error, never panic and never allocate
// more than 128 bytes per input byte plus 1 MiB, whatever a frame header
// claims. The 5-byte seeds are headers that claim 64 MiB and then end.
func FuzzReadFrame(f *testing.F) {
	page := tcpFrame(frameKindPage, wal.EncodePage(transportPage(7, 3)))
	f.Add(page)
	f.Add(page[:len(page)-1])
	f.Add(append(tcpFrame(frameKindAck, binary.BigEndian.AppendUint64(nil, 42)), page...))
	f.Add([]byte{frameKindAck, 0x04, 0, 0, 0})
	f.Add([]byte{frameKindPage, 0x04, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		page := newTCPConn(byteConn{r: bytes.NewReader(data)})
		for {
			if _, err := page.RecvPage(); err != nil {
				break
			}
		}
		ack := newTCPConn(byteConn{r: bytes.NewReader(data)})
		for {
			if _, err := ack.RecvAck(); err != nil {
				break
			}
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(128*len(data)+1<<20) {
			t.Fatalf("reading %d bytes allocated %d", len(data), grew)
		}
	})
}
