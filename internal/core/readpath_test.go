package core

import (
	"fmt"
	"testing"

	"forkbase/internal/chunker"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/pos"
	"forkbase/internal/store"
	"forkbase/internal/value"
)

// TestReadPathStoreCalls pins the read contract of a historical version:
// a cold GetVersion + index lookup reads the store once per node it decodes
// (FNode, root, one node per level below) and probes nothing, and the same
// read repeated is served by the node cache with no store call at all.  A
// version just written is read without a store call too: the commit caches
// its FNode.
func TestReadPathStoreCalls(t *testing.T) {
	for _, kind := range []index.Kind{index.KindPOS, index.KindMPT} {
		t.Run(kind.String(), func(t *testing.T) {
			mem := store.NewMemStore()
			cs := store.NewCountingStore(mem)
			db := Open(Options{Store: cs, Chunking: chunker.SmallConfig(), NodeCacheBytes: 64 << 20, Index: kind})
			entries := make([]index.Entry, 3000)
			for i := range entries {
				entries[i] = index.Entry{Key: []byte(fmt.Sprintf("row-%05d", i)), Val: []byte(fmt.Sprintf("v1-%d", i))}
			}
			val, err := db.NewMapValue(entries)
			if err != nil {
				t.Fatal(err)
			}
			v1, err := db.Put("data", "", val, nil)
			if err != nil {
				t.Fatal(err)
			}
			// A second version makes v1 historical.
			g0, _ := cs.Calls()
			v2, err := db.Put("data", "", value.String("later"), nil)
			if err != nil {
				t.Fatal(err)
			}
			g1, _ := cs.Calls()
			if _, err := db.GetVersion("data", v2.UID); err != nil {
				t.Fatal(err)
			}
			if g2, _ := cs.Calls(); g2 != g1 {
				t.Fatalf("first read of a version just committed made %d store Gets; want 0", g2-g1)
			}
			if g1 != g0 {
				t.Fatalf("commit over a cached head made %d store Gets; want 0", g1-g0)
			}
			cache := store.NodeCacheOf(db.Store())
			read := func() {
				t.Helper()
				v, err := db.GetVersion("data", v1.UID)
				if err != nil {
					t.Fatal(err)
				}
				ix, err := db.IndexOf(v)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ix.Get([]byte("row-01234"))
				if err != nil || string(got) != "v1-1234" {
					t.Fatalf("get = %q, %v", got, err)
				}
			}

			cache.Purge()
			g0, h0 := cs.Calls()
			read()
			g1, h1 := cs.Calls()
			gets, entered := g1-g0, int64(cache.Len())
			if h1 != h0 {
				t.Fatalf("cold read probed the store %d times", h1-h0)
			}
			if gets < 2 || gets != entered {
				t.Fatalf("cold read made %d store Gets and cached %d decodes; want one Get per decoded node", gets, entered)
			}
			if kind == index.KindPOS {
				tree, err := pos.LoadTree(mem, db.Chunking(), v1.Value.Root())
				if err != nil {
					t.Fatal(err)
				}
				st, err := tree.ComputeStats()
				if err != nil {
					t.Fatal(err)
				}
				if want := int64(1 + st.Height); gets != want {
					t.Fatalf("cold read made %d store Gets; want %d (FNode + %d tree levels)", gets, want, st.Height)
				}
			}

			read()
			if g2, h2 := cs.Calls(); g2 != g1 || h2 != h1 {
				t.Fatalf("warm read made %d store Gets and %d Has; want none", g2-g1, h2-h1)
			}
		})
	}
}

// TestGetVersionCopiesSharedFields: the FNode behind a version is shared
// through the node cache, so a caller mutating the Meta or Bases it was
// handed must not change what the next read returns.
func TestGetVersionCopiesSharedFields(t *testing.T) {
	db := Open(Options{Chunking: chunker.SmallConfig(), NodeCacheBytes: 1 << 20})
	v1, err := db.Put("k", "", value.String("one"), nil)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := db.Put("k", "", value.String("two"), map[string]string{"author": "alice"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.GetVersion("k", v2.UID)
	if err != nil {
		t.Fatal(err)
	}
	got.Meta["author"] = "mallory"
	got.Meta["extra"] = "x"
	got.Bases[0] = hash.Hash{}
	again, err := db.GetVersion("k", v2.UID)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Meta) != 1 || again.Meta["author"] != "alice" {
		t.Fatalf("meta after caller mutation = %v", again.Meta)
	}
	if len(again.Bases) != 1 || again.Bases[0] != v1.UID {
		t.Fatalf("bases after caller mutation = %v, want [%s]", again.Bases, v1.UID.Short())
	}
}
