package s2db

import (
	"errors"
	"os"
	"os/exec"
	"testing"
	"time"
)

// restoreChildEnv selects the writer half of TestCrossProcessRestore when
// the test binary re-executes itself; its value is the blob directory.
const restoreChildEnv = "S2DB_TEST_RESTORE_CHILD"

const (
	restoreKeys       = 40
	restorePartitions = 4
)

func restoreConfig(t *testing.T, dir string) Config {
	t.Helper()
	store, err := NewDiskBlobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Partitions: restorePartitions, BlobStore: store, Name: "xproc", MaxSegmentRows: 64}
}

// TestCrossProcessRestore writes unique keys to a disk blob store in one
// process and restores them in another (§3.2: the blob store alone is the
// backup). Every row must route, after the restore, to the partition the
// writer put it on, which holds only if placement hashes the same in every
// process: each key is found, each duplicate insert is refused, and the
// count is exact.
func TestCrossProcessRestore(t *testing.T) {
	if dir := os.Getenv(restoreChildEnv); dir != "" {
		writeRestoreKeys(t, dir)
		return
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	child := exec.Command(self, "-test.run=^TestCrossProcessRestore$", "-test.count=1")
	child.Env = append(os.Environ(), restoreChildEnv+"="+dir)
	if out, err := child.CombinedOutput(); err != nil {
		t.Fatalf("writer process: %v\n%s", err, out)
	}

	db, err := PointInTimeRestore(restoreConfig(t, dir), map[string]*Schema{"events": eventsSchema()}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	missed := 0
	for i := 0; i < restoreKeys; i++ {
		if _, ok, err := db.Get("events", Int(int64(i))); err != nil {
			t.Fatal(err)
		} else if !ok {
			missed++
		}
	}
	if missed != 0 {
		t.Errorf("Get missed %d of %d restored keys", missed, restoreKeys)
	}
	accepted := 0
	for i := 0; i < restoreKeys; i++ {
		err := db.Insert("events", restoreRow(i))
		switch {
		case err == nil:
			accepted++
		case !errors.Is(err, ErrDuplicateKey):
			t.Fatalf("re-insert key %d: %v", i, err)
		}
	}
	if accepted != 0 {
		t.Errorf("%d of %d duplicate keys were accepted", accepted, restoreKeys)
	}
	if n, err := db.Table("events").Count(); err != nil || n != restoreKeys {
		t.Errorf("COUNT(*) = %d (%v), want %d", n, err, restoreKeys)
	}
}

func restoreRow(i int) Row {
	return Row{Int(int64(i)), Str("k"), Int(int64(i)), Float(float64(i))}
}

// writeRestoreKeys is the writer process: it inserts the keys, stages every
// partition's log to blob and returns, which ends the process.
func writeRestoreKeys(t *testing.T, dir string) {
	db := openTestDB(t, restoreConfig(t, dir))
	if err := db.CreateTable("events", eventsSchema()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < restoreKeys; i++ {
		if err := db.Insert("events", restoreRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	for pi := 0; pi < restorePartitions; pi++ {
		db.Cluster().Master(pi).NoteAppend()
		db.Cluster().Stager(pi).Step()
	}
}
