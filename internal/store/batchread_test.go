package store

import (
	"errors"
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
	"forkbase/internal/nodecache"
)

func TestBatchReadAcrossImplementations(t *testing.T) {
	mk := func(s Store) (ids []hash.Hash, missing hash.Hash) {
		// Payloads outrun flipPayloadByte's offset, so the file case's rot
		// lands inside the first record.
		for _, payload := range []string{"alpha payload", "beta payload", "gamma payload"} {
			c := chunk.New(chunk.TypeBlobLeaf, []byte(payload))
			if _, err := s.Put(c); err != nil {
				t.Fatal(err)
			}
			ids = append(ids, c.ID())
		}
		missing = hash.Of([]byte("not stored"))
		return ids, missing
	}

	cases := []struct {
		name string
		open func(t *testing.T) Store
	}{
		{"mem", func(*testing.T) Store { return NewMemStore() }},
		{"file", func(t *testing.T) Store {
			fs, err := OpenFileStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { fs.Close() })
			return fs
		}},
		{"verifying", func(*testing.T) Store { return NewVerifyingStore(NewMemStore()) }},
		{"counting", func(*testing.T) Store { return NewCountingStore(NewMemStore()) }},
		{"malicious-honest", func(*testing.T) Store { return NewMaliciousStore(NewMemStore()) }},
		{"nodecached", func(*testing.T) Store {
			return WithNodeCache(NewVerifyingStore(NewMemStore()), nodecache.New(1<<20))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.open(t)
			ids, missing := mk(s)
			query := []hash.Hash{ids[2], missing, ids[0]}

			got, err := s.GetBatch(query)
			if err != nil {
				t.Fatal(err)
			}
			if got[0] == nil || got[0].ID() != ids[2] {
				t.Fatalf("slot 0 = %v, want %s", got[0], ids[2].Short())
			}
			if got[1] != nil {
				t.Fatal("missing id must yield a nil slot, not an error")
			}
			if got[2] == nil || got[2].ID() != ids[0] {
				t.Fatalf("slot 2 = %v, want %s", got[2], ids[0].Short())
			}

			has, err := s.HasBatch(query)
			if err != nil {
				t.Fatal(err)
			}
			if !has[0] || has[1] || !has[2] {
				t.Fatalf("HasBatch = %v, want [true false true]", has)
			}
			if fs, ok := s.(*FileStore); ok {
				fileBatchReads(t, fs, query)
			}
		})
	}
}

// fileBatchReads pins that FileStore's GetBatch reads each id exactly as Get
// does: records stamped at write cost no digest, and a rotted unstamped
// record is ErrCorrupt, not an absent slot.  query must name the store's
// first record.
func fileBatchReads(t *testing.T, fs *FileStore, query []hash.Hash) {
	t.Helper()
	before := hash.Digests()
	if _, err := fs.GetBatch(query); err != nil {
		t.Fatal(err)
	}
	if n := hash.Digests() - before; n != 0 {
		t.Fatalf("warm GetBatch paid %d digests, want 0", n)
	}
	// Reopen so the entries carry no stamp, then rot the first record.
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFileStore(fs.dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	flipPayloadByte(t, fs.segmentPath(0))
	if _, err := fs.GetBatch(query); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("GetBatch over a rotted record: err=%v, want ErrCorrupt", err)
	}
}

func TestVerifyingGetBatchCatchesForgery(t *testing.T) {
	mal := NewMaliciousStore(NewMemStore())
	v := NewVerifyingStore(mal)
	c := chunk.New(chunk.TypeBlobLeaf, []byte("genuine"))
	if _, err := v.Put(c); err != nil {
		t.Fatal(err)
	}
	mal.Forge(c.ID(), chunk.TypeBlobLeaf, []byte("forged"))
	if _, err := v.GetBatch([]hash.Hash{c.ID()}); err == nil {
		t.Fatal("verifying GetBatch must reject a forged chunk")
	}
	// The raw malicious store serves the forgery without complaint.
	out, err := mal.GetBatch([]hash.Hash{c.ID()})
	if err != nil || out[0] == nil {
		t.Fatalf("malicious store should serve the forgery silently: %v", err)
	}
}
