package rowstore

import "testing"

type testImage uint64

func (i testImage) ImageTS() uint64 { return uint64(i) }

// commitKeys commits one transaction at ts that inserts keys [from, to).
func commitKeys(t *testing.T, s *Store, ts uint64, from, to int) {
	t.Helper()
	tx := s.Begin(ts - 1)
	for i := from; i < to; i++ {
		if _, err := tx.Insert(key(i), row(i)); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit(ts)
}

// An image installs only on a running journal that holds every commit
// after its timestamp, and only when it is the newest; installing trims the
// entries it covers; a commit that overflows the journal drops the image
// with it.
func TestJournalOwnsItsImage(t *testing.T) {
	s := NewStore(0)
	if s.InstallImage(testImage(5)) {
		t.Fatal("image installed with no journal running")
	}
	if from := s.StartJournal(3); from != 3 {
		t.Fatalf("journal started after %d, want 3", from)
	}
	if from := s.StartJournal(9); from != 3 {
		t.Fatalf("a second start moved the running journal to %d", from)
	}
	commitKeys(t, s, 4, 0, 2)
	commitKeys(t, s, 6, 2, 3)
	if s.InstallImage(testImage(2)) {
		t.Fatal("image older than the journal's start installed")
	}
	if !s.InstallImage(testImage(4)) {
		t.Fatal("image at 4 refused")
	}
	if s.InstallImage(testImage(4)) {
		t.Fatal("image no newer than the installed one installed")
	}
	j := s.Journal()
	if !j.On || j.From != 3 || j.Image != testImage(4) || len(j.Entries) != 1 || j.Entries[0].TS != 6 {
		t.Fatalf("journal after install: %+v", j)
	}
	commitKeys(t, s, 7, 100, 100+JournalMax)
	if j := s.Journal(); j.On || j.Image != nil || j.Entries != nil {
		t.Fatalf("journal after overflow: on=%v image=%v, %d entries", j.On, j.Image, len(j.Entries))
	}
	if s.InstallImage(testImage(8)) {
		t.Fatal("image installed on a dropped journal")
	}
}
