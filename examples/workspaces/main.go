// Workspaces & PITR: separation of storage and compute (§3). The primary
// workspace commits locally and stages data to blob storage asynchronously;
// a read-only workspace bootstraps from blob snapshots and serves isolated
// analytics; point-in-time restore rebuilds the database as of a past
// timestamp purely from blob storage.
package main

import (
	"fmt"
	"log"
	"time"

	"s2db"
)

func main() {
	store := s2db.NewMemoryBlobStore()
	db, err := s2db.Open(s2db.Config{
		Name:                  "ledger",
		Partitions:            2,
		BlobStore:             store,
		BlobPutLatency:        2 * time.Millisecond, // simulated S3 write
		MaxSegmentRows:        512,
		BackgroundMaintenance: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	schema := s2db.NewSchema(
		s2db.Column{Name: "account", Type: s2db.Int64T},
		s2db.Column{Name: "balance", Type: s2db.Float64T},
	)
	schema.UniqueKey = []int{0}
	schema.ShardKey = []int{0}
	if err := db.CreateTable("accounts", schema); err != nil {
		log.Fatal(err)
	}

	// Commit latency is local even though every byte eventually reaches
	// blob storage: the paper's core storage-separation claim (§3.1).
	start := time.Now()
	for i := 0; i < 500; i++ {
		if err := db.Insert("accounts", s2db.Row{s2db.Int(int64(i)), s2db.Float(100)}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("500 commits in %v (blob write latency is 2ms — commits don't pay it)\n",
		time.Since(start).Round(time.Millisecond))
	db.Flush("accounts")

	// Give the stagers a moment, then inspect what reached blob storage.
	for pi := 0; pi < 2; pi++ {
		db.Cluster().Master(pi).NoteAppend()
		db.Cluster().Stager(pi).Step()
		if err := db.Cluster().Stager(pi).Snapshot(); err != nil {
			log.Fatal(err)
		}
		files, chunks, snaps, _ := db.Cluster().Stager(pi).Stats()
		fmt.Printf("partition %d staged: %d data files, %d log chunks, %d snapshots\n",
			pi, files, chunks, snaps)
	}

	// Mark "the past" for the restore below — PITR targets wall-clock
	// time, mapped to a consistent log position per partition (§3.2).
	past := time.Now()

	// Read-only workspace: isolated compute bootstrapped from blob storage,
	// streaming only the log tail from the primary (§3.2).
	ws, err := db.CreateWorkspace("analytics")
	if err != nil {
		log.Fatal(err)
	}
	if err := ws.WaitCaughtUp(5 * time.Second); err != nil {
		log.Fatal(err)
	}
	n, err := db.Table("accounts").OnWorkspace(ws).Count()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workspace sees %d accounts (replication lag: %d records)\n", n, ws.Lag())

	// Mutate after the restore point: drain some accounts.
	if _, err := db.Update("accounts",
		s2db.Where{Pred: func(r s2db.Row) bool { return r[0].I < 100 }},
		func(r s2db.Row) s2db.Row { r[1] = s2db.Float(0); return r },
	); err != nil {
		log.Fatal(err)
	}
	sumNow := mustSum(db, nil)
	fmt.Printf("after draining 100 accounts, total balance = %.0f\n", sumNow)

	// Make sure the mutations reached blob storage, then restore to the
	// pre-drain state — no backups were ever taken (§3.2: the blob store
	// is a continuous backup).
	for pi := 0; pi < 2; pi++ {
		db.Cluster().Master(pi).NoteAppend()
		db.Cluster().Stager(pi).Step()
	}
	restored, err := s2db.PointInTimeRestore(s2db.Config{
		Name: "ledger", Partitions: 2, BlobStore: store, MaxSegmentRows: 512,
	}, map[string]*s2db.Schema{"accounts": schema}, past)
	if err != nil {
		log.Fatal(err)
	}
	defer restored.Close()
	rows, err := restored.Table("accounts").Agg(s2db.CountAll(), s2db.SumCol(1)).Rows()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PITR to %s: %d accounts, total balance = %.0f (pre-drain state)\n",
		past.Format("15:04:05.000"), rows[0][0].I, rows[0][1].F)
}

func mustSum(db *s2db.DB, _ interface{}) float64 {
	rows, err := db.Table("accounts").Agg(s2db.SumCol(1)).Rows()
	if err != nil {
		log.Fatal(err)
	}
	return rows[0][0].F
}
