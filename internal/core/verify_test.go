package core

import (
	"errors"
	"fmt"
	"testing"

	"forkbase/internal/chunker"
	"forkbase/internal/pos"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// newMaliciousDB returns a DB whose storage provider can be corrupted, plus
// the attack handle — the paper's §II-D threat model.
func newMaliciousDB() (*DB, *store.MaliciousStore) {
	mal := store.NewMaliciousStore(store.NewMemStore())
	db := Open(Options{Store: mal, Chunking: chunker.SmallConfig()})
	return db, mal
}

func bigMapValue(t *testing.T, db *DB, n int, tag string) value.Value {
	t.Helper()
	entries := make([]pos.Entry, n)
	for i := range entries {
		entries[i] = pos.Entry{
			Key: []byte(fmt.Sprintf("row-%05d", i)),
			Val: []byte(fmt.Sprintf("%s-value-%d", tag, i)),
		}
	}
	v, err := value.NewMap(db.Store(), db.Chunking(), entries)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestVerifyCleanVersion(t *testing.T) {
	db, _ := newMaliciousDB()
	v, err := db.Put("data", "", bigMapValue(t, db, 2000, "v1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := db.VerifyVersion("data", v.UID, false)
	if err != nil {
		t.Fatalf("clean verify failed: %v", err)
	}
	if !rep.OK || rep.ChunksChecked < 10 || rep.VersionsChecked != 1 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestVerifyDetectsValueCorruption(t *testing.T) {
	db, mal := newMaliciousDB()
	v, err := db.Put("data", "", bigMapValue(t, db, 2000, "v1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one arbitrary value chunk.
	ids, err := v.Value.ChunkIDs(db.RawStore(), db.Chunking())
	if err != nil {
		t.Fatal(err)
	}
	target := ids[len(ids)/2]
	if ok, err := mal.CorruptFlip(target, 7, 2); err != nil || !ok {
		t.Fatalf("inject: %v %v", ok, err)
	}
	rep, err := db.VerifyVersion("data", v.UID, false)
	if !errors.Is(err, ErrTampered) {
		t.Fatalf("tampering not detected: %v", err)
	}
	if rep.OK || len(rep.Failures) == 0 {
		t.Fatalf("report = %+v", rep)
	}
	found := false
	for _, f := range rep.Failures {
		if f.ChunkID == target {
			found = true
		}
	}
	if !found {
		t.Fatalf("failure list %+v does not name corrupted chunk %s", rep.Failures, target.Short())
	}
}

func TestVerifyDetectsFNodeCorruption(t *testing.T) {
	db, mal := newMaliciousDB()
	v, err := db.Put("data", "", value.String("x"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := mal.CorruptFlip(v.UID, 0, 0); err != nil || !ok {
		t.Fatalf("inject: %v %v", ok, err)
	}
	if _, err := db.VerifyVersion("data", v.UID, false); !errors.Is(err, ErrTampered) {
		t.Fatalf("FNode tampering not detected: %v", err)
	}
	// Tampered head must also fail plain Get (reads are verified).
	if _, err := db.Get("data", "master"); err == nil {
		t.Fatal("Get returned forged version")
	}
}

func TestVerifyDeepDetectsHistoryTampering(t *testing.T) {
	db, mal := newMaliciousDB()
	v1, err := db.Put("doc", "", value.String("first"), nil)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := db.Put("doc", "", value.String("second"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the *historical* version; a shallow verify of the head
	// passes, but a deep verify must catch it.
	if ok, err := mal.CorruptFlip(v1.UID, 1, 1); err != nil || !ok {
		t.Fatalf("inject: %v %v", ok, err)
	}
	if _, err := db.VerifyVersion("doc", v2.UID, false); err != nil {
		t.Fatalf("shallow verify should pass (head untouched): %v", err)
	}
	if _, err := db.VerifyVersion("doc", v2.UID, true); !errors.Is(err, ErrTampered) {
		t.Fatalf("deep verify missed history tampering: %v", err)
	}
}

// TestVerifyDetectsEveryChunkCorruption is the exhaustive Fig 6 property:
// corrupting ANY single reachable chunk must be detected.
func TestVerifyDetectsEveryChunkCorruption(t *testing.T) {
	db, mal := newMaliciousDB()
	v, err := db.Put("data", "", bigMapValue(t, db, 500, "v"), nil)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := v.Value.ChunkIDs(db.RawStore(), db.Chunking())
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, v.UID)
	for i, id := range ids {
		mal.Heal()
		if ok, err := mal.CorruptFlip(id, i, uint(i%8)); err != nil || !ok {
			t.Fatalf("inject %d: %v %v", i, ok, err)
		}
		if _, err := db.VerifyVersion("data", v.UID, true); !errors.Is(err, ErrTampered) {
			t.Fatalf("corruption of chunk %d (%s) went undetected", i, id.Short())
		}
	}
	mal.Heal()
	if _, err := db.VerifyVersion("data", v.UID, true); err != nil {
		t.Fatalf("verify after heal: %v", err)
	}
}

func TestUIDCoversValueAndHistory(t *testing.T) {
	// Two versions with the same value but different histories must have
	// different uids; two with same value and same history identical uids.
	db := newTestDB()
	a1, _ := db.Put("a", "", value.String("same"), nil)
	b1, _ := db.Put("b", "", value.String("same"), nil)
	if a1.UID == b1.UID {
		t.Fatal("different keys share uid")
	}
	db.Put("a", "", value.String("other"), nil)
	a3, _ := db.Put("a", "", value.String("same"), nil)
	if a3.UID == a1.UID {
		t.Fatal("same value, longer history, same uid — history not covered")
	}
}

// TestNodeCacheCannotMaskTampering enables the decoded-node cache over a
// malicious store and confirms the layering invariant: the cache sits above
// chunk verification, so a forged chunk is rejected before it can ever be
// cached, and repeated reads keep failing rather than "warming up" on
// corrupt data.  The cache also holds FNodes, so the FNode case checks the
// other half of the layering: a cached version object does not hide rot
// from deep verification, which re-reads the store.
func TestNodeCacheCannotMaskTampering(t *testing.T) {
	mal := store.NewMaliciousStore(store.NewMemStore())
	db := Open(Options{Store: mal, Chunking: chunker.SmallConfig(), NodeCacheBytes: 16 << 20})
	v, err := db.Put("data", "", bigMapValue(t, db, 2000, "v1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := v.Value.ChunkIDs(db.RawStore(), db.Chunking())
	if err != nil {
		t.Fatal(err)
	}
	// Evict anything decoded during the build/put phase so the attacked
	// chunk must be re-read through the verifying layer.
	store.NodeCacheOf(db.Store()).Purge()
	for _, id := range ids {
		if ok, err := mal.CorruptFlip(id, 7, 2); err != nil || !ok {
			t.Fatalf("corrupt %s: %v", id.Short(), err)
		}
	}
	if _, err := pos.LoadTree(db.Store(), db.Chunking(), v.Value.Root()); err == nil {
		t.Fatal("loading a fully corrupted tree succeeded")
	}
	if st := db.NodeCacheStats(); st.Entries != 0 {
		t.Fatalf("forged chunks entered the cache: %+v", st)
	}

	t.Run("fnode", func(t *testing.T) {
		mal := store.NewMaliciousStore(store.NewMemStore())
		db := Open(Options{Store: mal, Chunking: chunker.SmallConfig(), NodeCacheBytes: 16 << 20})
		v1, err := db.Put("data", "", value.String("first"), nil)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := db.Put("data", "", value.String("second"), nil)
		if err != nil {
			t.Fatal(err)
		}
		// Cache v1's FNode, then rot it in the store.
		if _, err := db.GetVersion("data", v1.UID); err != nil {
			t.Fatal(err)
		}
		if ok, err := mal.CorruptFlip(v1.UID, 3, 1); err != nil || !ok {
			t.Fatalf("corrupt %s: %v", v1.UID.Short(), err)
		}
		rep, err := db.VerifyVersion("data", v2.UID, true)
		if !errors.Is(err, ErrTampered) {
			t.Fatalf("deep verify after a cached read = %v, want ErrTampered", err)
		}
		found := false
		for _, f := range rep.Failures {
			found = found || f.ChunkID == v1.UID
		}
		if !found {
			t.Fatalf("deep verify did not report the rotted FNode %s: %+v", v1.UID.Short(), rep.Failures)
		}
	})
}
