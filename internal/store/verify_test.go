package store

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
)

// ---------------------------------------------------------------------------
// One guard for every stack
// ---------------------------------------------------------------------------

// TestVerifyCacheTrustGating pins that the verifying store makes no trust
// decision per stack: the same guard runs over every layering.  Proven
// chunks (hashed in this process) pass without a rehash in the guard, and a
// substitution behind a malicious layer — the stand-in for every wire or
// untrusted boundary — is caught on every read.
func TestVerifyCacheTrustGating(t *testing.T) {
	for _, tc := range []struct {
		name  string
		inner func(mem Store) (Store, *MaliciousStore)
	}{
		{"mem", func(mem Store) (Store, *MaliciousStore) { return mem, nil }},
		{"counting-over-mem", func(mem Store) (Store, *MaliciousStore) { return NewCountingStore(mem), nil }},
		{"malicious-over-mem", func(mem Store) (Store, *MaliciousStore) {
			mal := NewMaliciousStore(mem)
			return mal, mal
		}},
		{"counting-over-malicious", func(mem Store) (Store, *MaliciousStore) {
			mal := NewMaliciousStore(mem)
			return NewCountingStore(mal), mal
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inner, mal := tc.inner(NewMemStore())
			v := NewVerifyingStore(inner)
			c := mkChunk(11)
			if _, err := v.Put(c); err != nil {
				t.Fatal(err)
			}
			before := hash.Digests()
			if _, err := v.Get(c.ID()); err != nil {
				t.Fatalf("honest read failed: %v", err)
			}
			if got := hash.Digests() - before; got != 0 {
				t.Fatalf("honest read of a proven chunk paid %d digests, want 0", got)
			}
			if mal == nil {
				return
			}
			if ok, err := mal.CorruptFlip(c.ID(), 1, 2); err != nil || !ok {
				t.Fatalf("CorruptFlip: ok=%v err=%v", ok, err)
			}
			for i := 0; i < 2; i++ {
				if _, err := v.Get(c.ID()); !errors.Is(err, chunk.ErrCorrupt) {
					t.Fatalf("read %d of tampered chunk: err=%v, want ErrCorrupt", i, err)
				}
			}
		})
	}
}

// TestVerifyCacheOffStillDetectsTamper pins that over an untrusted stack
// every substitution is caught, on the first read and on every repeat read,
// and no read is counted as served on a stamp.
func TestVerifyCacheOffStillDetectsTamper(t *testing.T) {
	mal := NewMaliciousStore(NewMemStore())
	v := NewVerifyingStore(mal)
	c := mkChunk(7)
	if _, err := v.Put(c); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Get(c.ID()); err != nil {
		t.Fatalf("honest read failed: %v", err)
	}
	if ok, err := mal.CorruptFlip(c.ID(), 3, 1); err != nil || !ok {
		t.Fatalf("CorruptFlip: ok=%v err=%v", ok, err)
	}
	for i := 0; i < 3; i++ {
		if _, err := v.Get(c.ID()); err == nil {
			t.Fatalf("read %d of tampered chunk succeeded", i)
		}
	}
	if v.VerifyStats().Hits != 0 {
		t.Fatalf("untrusted stack recorded stamp hits: %+v", v.VerifyStats())
	}
}

// ---------------------------------------------------------------------------
// FileStore stamps
// ---------------------------------------------------------------------------

// warmFileStack builds a small multi-segment file store and reopens it, so
// every record sits in a sealed, mmap-served segment with no stamp yet (as
// after a restart), behind a verifying store.
func warmFileStack(t *testing.T) (*FileStore, *VerifyingStore, []hash.Hash) {
	t.Helper()
	if !mmapSupported {
		t.Skip("no mmap on this platform; sealed reads use pread")
	}
	dir := t.TempDir()
	fs, err := OpenFileStoreSegmented(dir, 2048)
	if err != nil {
		t.Fatal(err)
	}
	ids := fillSegments(t, fs, 60)
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if fs, err = OpenFileStoreSegmented(dir, 2048); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	if fs.actSeg.Load() < 2 {
		t.Fatal("expected several sealed segments")
	}
	return fs, NewVerifyingStore(fs), ids
}

// TestVerifyCacheSkipsRepeatRehash is the tentpole pin: the first read of an
// unstamped sealed record pays exactly one digest (FileStore hashes it in
// place and stamps the entry), and warm reads pay zero — through the
// verifying store and through the bare store alike.
func TestVerifyCacheSkipsRepeatRehash(t *testing.T) {
	fs, v, ids := warmFileStack(t)
	id := ids[0]

	before := hash.Digests()
	if _, err := v.Get(id); err != nil {
		t.Fatal(err)
	}
	if got := hash.Digests() - before; got != 1 {
		t.Fatalf("cold verified read paid %d digests, want exactly 1", got)
	}

	before = hash.Digests()
	for i := 0; i < 5; i++ {
		if _, err := v.Get(id); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := hash.Digests() - before; got != 0 {
		t.Fatalf("warm sealed reads paid %d digests, want 0", got)
	}
	st := v.VerifyStats()
	if st.Hits < 10 || st.Misses != 1 || st.SkippedHashes < 10 {
		t.Fatalf("verify stats after warm reads: %+v", st)
	}
}

// TestVerifyCacheGetBatchAmortizes pins the batch path: a warm GetBatch over
// already-verified ids pays zero digests.
func TestVerifyCacheGetBatchAmortizes(t *testing.T) {
	_, v, ids := warmFileStack(t)
	batch := ids[:20]

	before := hash.Digests()
	cs, err := v.GetBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cs {
		if c == nil {
			t.Fatalf("missing chunk %d", i)
		}
	}
	cold := hash.Digests() - before
	if cold != int64(len(batch)) {
		t.Fatalf("cold GetBatch paid %d digests, want %d", cold, len(batch))
	}

	before = hash.Digests()
	if _, err := v.GetBatch(batch); err != nil {
		t.Fatal(err)
	}
	if got := hash.Digests() - before; got != 0 {
		t.Fatalf("warm GetBatch paid %d digests, want 0", got)
	}
}

// TestVerifyCacheParallelBatchRecheck pins that the parallel recheck pool
// returns the same answers as the serial path, including catching a
// mid-batch forgery, across worker counts.
func TestVerifyCacheParallelBatchRecheck(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			_, v, ids := warmFileStack(t)
			v.SetVerifyWorkers(workers)
			if _, err := v.GetBatch(ids); err != nil {
				t.Fatal(err)
			}
			// A claimed batch write with one tampered element must fail
			// whichever worker meets it.
			cs := make([]*chunk.Chunk, 16)
			for i := range cs {
				genuine := mkChunk(1000 + i)
				data := append([]byte(nil), genuine.Data()...)
				id := genuine.ID()
				if i == 11 {
					data[0] ^= 0x01 // payload no longer matches id
				}
				cs[i] = chunk.NewClaimed(genuine.Type(), data, id)
			}
			if _, err := v.PutBatch(cs); err == nil {
				t.Fatal("PutBatch accepted a tampered claimed chunk")
			} else if !strings.Contains(err.Error(), "batch chunk 11") {
				t.Fatalf("error does not name the tampered element: %v", err)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Relocation and scrub
// ---------------------------------------------------------------------------

// TestCompactionInvalidatesVerifyCache pins the relocation contract: a sweep
// that compacts segments re-homes records into fresh, unstamped index
// entries, so a survivor's next read hashes the moved bytes (at most one
// digest), returns them intact, and is warm again afterwards.
func TestCompactionInvalidatesVerifyCache(t *testing.T) {
	fs, v, ids := warmFileStack(t)
	keep := ids[0]
	want, err := v.Get(keep)
	if err != nil {
		t.Fatal(err)
	}
	wantData := append([]byte(nil), want.Data()...)

	res, err := fs.Sweep(func(id hash.Hash) bool { return id == keep }, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompactedSegments == 0 || len(res.MovedIDs) == 0 {
		t.Fatalf("sweep moved nothing; test needs a relocation: %+v", res)
	}

	before := hash.Digests()
	got, err := v.Get(keep)
	if err != nil {
		t.Fatalf("surviving chunk unreadable after compaction: %v", err)
	}
	if n := hash.Digests() - before; n > 1 {
		t.Fatalf("post-compaction read paid %d digests, want at most 1", n)
	}
	if !bytes.Equal(got.Data(), wantData) {
		t.Fatal("post-compaction read returned different bytes")
	}
	before = hash.Digests()
	if _, err := v.Get(keep); err != nil {
		t.Fatal(err)
	}
	if n := hash.Digests() - before; n != 0 {
		t.Fatalf("re-warmed read paid %d digests, want 0", n)
	}
}

// TestScrubBypassesVerifyCache pins the non-negotiable scrub property: scrub
// reads segment bytes directly and never consults the index stamps, so rot
// that creeps in *after* a verified read is still classified — and a direct
// fs.Scrub(), with no engine above it, leaves the lost id unreadable.
func TestScrubBypassesVerifyCache(t *testing.T) {
	fs, v, ids := warmFileStack(t)
	// Stamp every record first.
	if _, err := v.GetBatch(ids); err != nil {
		t.Fatal(err)
	}
	before := hash.Digests()
	if _, err := v.GetBatch(ids); err != nil {
		t.Fatal(err)
	}
	if n := hash.Digests() - before; n != 0 {
		t.Fatalf("warm pass paid %d digests; records were not stamped", n)
	}
	flipPayloadByte(t, fs.segmentPath(0))

	st, err := fs.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if st.Corrupt != 1 || len(st.Lost) != 1 {
		t.Fatalf("scrub over stamped records missed the rot: %+v", st)
	}
	if fs.Health() == nil {
		t.Fatal("store healthy after scrub found corruption")
	}
	lost := st.Lost[0]
	if _, err := v.Get(lost); err == nil {
		t.Fatal("lost chunk still readable through the verifying store")
	}
	if _, err := fs.Get(lost); err == nil {
		t.Fatal("lost chunk still readable from the bare store")
	}
}

// TestVerifyStampRejectsForgedClaimedWrite pins that FileStore never stamps
// bytes it has not hashed: a claimed chunk whose payload does not hash to
// its id, written raw (no verifying layer), reads back as ErrCorrupt on
// every read — from the active tail and from a sealed segment.
func TestVerifyStampRejectsForgedClaimedWrite(t *testing.T) {
	fs, err := OpenFileStoreSegmented(t.TempDir(), 2048)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	genuine := mkChunk(5)
	forged := chunk.NewClaimed(genuine.Type(), []byte("not the genuine payload"), genuine.ID())
	if _, err := fs.Put(forged); err != nil {
		t.Fatal(err)
	}
	readTwice := func(where string) {
		for i := 0; i < 2; i++ {
			if _, err := fs.Get(genuine.ID()); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s read %d of a forged record: err=%v, want ErrCorrupt", where, i, err)
			}
		}
	}
	readTwice("tail")
	for i := 0; fs.actSeg.Load() == 0; i++ {
		if _, err := fs.Put(fileChunk(100 + i)); err != nil {
			t.Fatal(err)
		}
	}
	readTwice("sealed")
	if st := fs.Stats(); st.StampedGets != 0 {
		t.Fatalf("forged record served on a stamp: %+v", st)
	}
}

// ---------------------------------------------------------------------------
// Provenance: one hash per chunk, end to end
// ---------------------------------------------------------------------------

// TestSinkIngestOneHashPerChunk is the counting-hasher acceptance pin: bulk
// ingest through the sink and the verifying store pays exactly one digest
// per emitted chunk — the sink's own id hash — because the provenance token
// lets the verifying write path skip its recheck.
func TestSinkIngestOneHashPerChunk(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  SinkOptions
	}{
		{"sync", SinkOptions{BatchSize: 8}.SyncHashers()},
		{"async", SinkOptions{BatchSize: 8, Hashers: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := NewVerifyingStore(NewMemStore())
			sink := NewChunkSink(v, tc.opt)
			defer sink.Close()

			const n = 200
			skippedBefore := v.VerifyStats().SkippedHashes
			before := hash.Digests()
			for i := 0; i < n; i++ {
				payload := []byte(fmt.Sprintf("ingest-%s-%d", tc.name, i))
				if _, err := sink.Emit(chunk.TypeBlobLeaf, sinkEnc(chunk.TypeBlobLeaf, payload)); err != nil {
					t.Fatal(err)
				}
			}
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := hash.Digests() - before; got != n {
				t.Fatalf("ingest of %d chunks paid %d digests, want exactly %d", n, got, n)
			}
			if got := v.VerifyStats().SkippedHashes - skippedBefore; got != n {
				t.Fatalf("provenance skipped %d rechecks, want %d", got, n)
			}
		})
	}
}

// TestPutSeedsVerifyCache pins that a verified write stamps its record:
// bytes the writer just hashed (or recheck just confirmed) need no rehash
// when read back — from the active tail's positioned-read path, and again
// after the record's segment sealed.
func TestPutSeedsVerifyCache(t *testing.T) {
	fs, v, _ := warmFileStack(t)
	c := mkChunk(4242)
	if _, err := v.Put(c); err != nil {
		t.Fatal(err)
	}
	before := hash.Digests()
	for i := 0; i < 3; i++ {
		got, err := v.Get(c.ID())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Data(), c.Data()) {
			t.Fatal("tail read returned different bytes")
		}
	}
	if got := hash.Digests() - before; got != 0 {
		t.Fatalf("tail re-reads of a just-written chunk paid %d digests, want 0", got)
	}
	// Force the tail (holding c) to seal so the next read is served from a
	// mapping.
	sealedBefore := fs.actSeg.Load()
	for i := 0; i < 30; i++ {
		if _, err := fs.Put(fileChunk(10_000 + i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	if fs.actSeg.Load() == sealedBefore {
		t.Fatal("tail never rotated; chunk under test still unsealed")
	}
	before = hash.Digests()
	if _, err := v.Get(c.ID()); err != nil {
		t.Fatal(err)
	}
	if got := hash.Digests() - before; got != 0 {
		t.Fatalf("sealed read of a just-written chunk paid %d digests, want 0", got)
	}
}
