package store

import (
	"testing"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
	"forkbase/internal/nodecache"
	"forkbase/internal/obs"
)

func TestInstrumentedStoreCounts(t *testing.T) {
	reg := obs.NewRegistry()
	ms := NewMemStore()
	st := Instrument(ms, reg)

	c := chunk.New(chunk.TypeBlobLeaf, []byte("payload"))
	if _, err := st.Put(c); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(c.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get(hash.Of([]byte("absent"))); err != ErrNotFound {
		t.Fatalf("get absent: %v", err)
	}
	if _, err := st.Has(c.ID()); err != nil {
		t.Fatal(err)
	}
	c2 := chunk.New(chunk.TypeBlobLeaf, []byte("batchling"))
	if _, err := st.PutBatch([]*chunk.Chunk{c2}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.GetBatch([]hash.Hash{c.ID(), c2.ID()}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.HasBatch([]hash.Hash{c.ID()}); err != nil {
		t.Fatal(err)
	}

	wantOps := map[string]float64{
		"get": 2, "put": 1, "has": 1, "put_batch": 1, "get_batch": 1, "has_batch": 1,
	}
	// Latency on the single-chunk paths is sampled (first op of every
	// latSampleMask+1 is timed), so each family here records exactly one
	// observation; batch paths are always timed.
	wantTimed := map[string]float64{
		"get": 1, "put": 1, "has": 1, "put_batch": 1, "get_batch": 1, "has_batch": 1,
	}
	for op, want := range wantOps {
		if got, ok := reg.Value("forkbase_store_ops_total", "mem", op); !ok || got != want {
			t.Errorf("ops_total{mem,%s} = %v (ok=%v), want %v", op, got, ok, want)
		}
		if got, _ := reg.Value("forkbase_store_op_seconds", "mem", op); got != wantTimed[op] {
			t.Errorf("op_seconds{mem,%s} count = %v, want %v", op, got, wantTimed[op])
		}
	}
	// Bytes: writes = len("payload") + len("batchling"); reads = payload
	// once via Get plus both via GetBatch.
	if got, _ := reg.Value("forkbase_store_write_bytes_total", "mem"); got != 16 {
		t.Errorf("write_bytes = %v, want 16", got)
	}
	if got, _ := reg.Value("forkbase_store_read_bytes_total", "mem"); got != 23 {
		t.Errorf("read_bytes = %v, want 23", got)
	}
	// A not-found get is not an error.
	if got, _ := reg.Value("forkbase_store_errors_total", "mem"); got != 0 {
		t.Errorf("errors_total = %v, want 0", got)
	}
}

// TestInstrumentTransparent: every capability stays discoverable through
// the wrapper, which is the identity for nil/Discard registries.
func TestInstrumentTransparent(t *testing.T) {
	ms := NewMemStore()
	if st := Instrument(ms, nil); st != ms {
		t.Error("nil registry should return inner unchanged")
	}
	if st := Instrument(ms, obs.Discard); st != ms {
		t.Error("Discard registry should return inner unchanged")
	}

	cache := nodecache.New(1 << 20)
	layered := WithSinkHashers(WithNodeCache(ms, cache), 3)
	st := Instrument(layered, obs.NewRegistry())
	if NodeCacheOf(st) != cache {
		t.Error("node cache not forwarded through instrumentation")
	}
	if SinkHashersOf(st) != 3 {
		t.Error("sink hashers not forwarded through instrumentation")
	}
	if KindOf(st) != "mem" {
		t.Errorf("KindOf = %q, want mem", KindOf(st))
	}
	u, ok := st.(interface{ Unwrap() Store })
	if !ok || u.Unwrap() != layered {
		t.Error("Unwrap should expose the wrapped store")
	}
}

// storeOnly hides every optional method of its inner store.
type storeOnly struct{ Store }

func TestKindOf(t *testing.T) {
	ms := NewMemStore()
	if got := KindOf(ms); got != "mem" {
		t.Errorf("mem store kind = %q", got)
	}
	if got := KindOf(WithNodeCache(ms, nodecache.New(1024))); got != "mem" {
		t.Errorf("wrapped mem store kind = %q", got)
	}
	if got := KindOf(NewCountingStore(ms)); got != "mem" {
		// CountingStore unwraps like every other wrapper.
		t.Errorf("counting store kind = %q", got)
	}
	if got := KindOf(NewCountingStore(storeOnly{ms})); got != "store" {
		// No layer declares a kind: the generic fallback applies.
		t.Errorf("kindless store kind = %q", got)
	}
}
