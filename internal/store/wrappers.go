package store

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"forkbase/internal/chunk"
	"forkbase/internal/hash"
)

// CountingStore wraps a Store and records the byte increments of delimited
// phases, so experiments can report "loading dataset 2 increased storage by
// only 0.04 KB" exactly like Fig 4 of the paper.
//
// Every write method is the embedded inner store's, so batched ingest moves
// the inner counters exactly as per-chunk Puts would.  Reads and existence
// probes are also counted here, per chunk id (Calls), so a test can pin
// how many store round trips a read path makes.
//
// Concurrency: the call counters are atomic, and Mark/Increments guard the
// snapshot slices with one mutex, so concurrent builder workers can write
// through a CountingStore while an experiment thread marks phases.
type CountingStore struct {
	Store

	gets, has atomic.Int64

	mu     sync.Mutex
	marks  []Stats
	labels []string
}

// NewCountingStore wraps inner.
func NewCountingStore(inner Store) *CountingStore {
	return &CountingStore{Store: inner}
}

// Unwrap exposes the inner store (capability discovery through As).
func (c *CountingStore) Unwrap() Store { return c.Store }

// Get implements Store, counting the read.
func (c *CountingStore) Get(id hash.Hash) (*chunk.Chunk, error) {
	c.gets.Add(1)
	return c.Store.Get(id)
}

// GetBatch implements Store, counting one read per id.
func (c *CountingStore) GetBatch(ids []hash.Hash) ([]*chunk.Chunk, error) {
	c.gets.Add(int64(len(ids)))
	return c.Store.GetBatch(ids)
}

// Has implements Store, counting the probe.
func (c *CountingStore) Has(id hash.Hash) (bool, error) {
	c.has.Add(1)
	return c.Store.Has(id)
}

// HasBatch implements Store, counting one probe per id.
func (c *CountingStore) HasBatch(ids []hash.Hash) ([]bool, error) {
	c.has.Add(int64(len(ids)))
	return c.Store.HasBatch(ids)
}

// Calls returns how many chunk ids were read (Get, GetBatch) and probed
// (Has, HasBatch) through this wrapper.
func (c *CountingStore) Calls() (gets, has int64) { return c.gets.Load(), c.has.Load() }

// Mark snapshots the current counters under a label.
func (c *CountingStore) Mark(label string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.marks = append(c.marks, c.Store.Stats())
	c.labels = append(c.labels, label)
}

// Increment describes the storage change between two consecutive marks.
type Increment struct {
	Label         string
	PhysicalBytes int64 // bytes actually added to storage
	LogicalBytes  int64 // bytes that would have been added without dedup
	NewChunks     int64
	DedupHits     int64
}

// Increments reports the per-phase storage growth between consecutive marks.
// Call Mark before and after each phase; phase i is labelled with the label
// of its closing mark.
func (c *CountingStore) Increments() []Increment {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Increment
	for i := 1; i < len(c.marks); i++ {
		prev, cur := c.marks[i-1], c.marks[i]
		out = append(out, Increment{
			Label:         c.labels[i],
			PhysicalBytes: cur.PhysicalBytes - prev.PhysicalBytes,
			LogicalBytes:  cur.LogicalBytes - prev.LogicalBytes,
			NewChunks:     cur.UniqueChunks - prev.UniqueChunks,
			DedupHits:     cur.DedupHits - prev.DedupHits,
		})
	}
	return out
}

// MaliciousStore wraps a Store and simulates the paper's threat model
// (§II-D): "the storage is malicious, but the users keep track of the latest
// uid of every branch".  It can silently corrupt stored chunks or substitute
// forged ones; chunk verification at the read path must catch every attack.
type MaliciousStore struct {
	Inner Store

	mu        sync.Mutex
	corrupted map[hash.Hash][]byte // id -> forged payload served instead
	forgeType map[hash.Hash]chunk.Type
}

var _ Store = (*MaliciousStore)(nil)

// NewMaliciousStore wraps inner; it behaves honestly until an attack is
// injected.
func NewMaliciousStore(inner Store) *MaliciousStore {
	return &MaliciousStore{
		Inner:     inner,
		corrupted: make(map[hash.Hash][]byte),
		forgeType: make(map[hash.Hash]chunk.Type),
	}
}

// Put implements Store.
func (m *MaliciousStore) Put(ch *chunk.Chunk) (bool, error) { return m.Inner.Put(ch) }

// PutBatch implements Store.
func (m *MaliciousStore) PutBatch(cs []*chunk.Chunk) ([]bool, error) { return m.Inner.PutBatch(cs) }

// GetBatch implements Store: attacked ids are substituted exactly as
// in Get, so batched readers face the same threat model as point readers.
func (m *MaliciousStore) GetBatch(ids []hash.Hash) ([]*chunk.Chunk, error) {
	out := make([]*chunk.Chunk, len(ids))
	for i, id := range ids {
		c, err := m.Get(id)
		if errors.Is(err, ErrNotFound) {
			continue
		}
		if err != nil {
			return out, err
		}
		out[i] = c
	}
	return out, nil
}

// HasBatch implements Store.
func (m *MaliciousStore) HasBatch(ids []hash.Hash) ([]bool, error) { return m.Inner.HasBatch(ids) }

// Has implements Store.
func (m *MaliciousStore) Has(id hash.Hash) (bool, error) { return m.Inner.Has(id) }

// Stats implements Store.
func (m *MaliciousStore) Stats() Stats { return m.Inner.Stats() }

// Unwrap exposes the inner store (capability discovery through As).
func (m *MaliciousStore) Unwrap() Store { return m.Inner }

// Get implements Store: it serves the forged payload for attacked ids.
//
// Note that the forged chunk is returned *as if it were genuine* — no error —
// because a malicious provider would not announce the substitution.
// Detection is the verifier's job.
func (m *MaliciousStore) Get(id hash.Hash) (*chunk.Chunk, error) {
	m.mu.Lock()
	payload, bad := m.corrupted[id]
	typ := m.forgeType[id]
	m.mu.Unlock()
	if bad {
		return chunk.New(typ, payload), nil
	}
	return m.Inner.Get(id)
}

// CorruptFlip arranges for future Gets of id to return the genuine payload
// with the bit at (offset, bit) flipped.  Returns false if id is unknown.
func (m *MaliciousStore) CorruptFlip(id hash.Hash, offset int, bit uint) (bool, error) {
	c, err := m.Inner.Get(id)
	if err != nil {
		if err == ErrNotFound {
			return false, nil
		}
		return false, err
	}
	data := append([]byte(nil), c.Data()...)
	if len(data) == 0 {
		return false, nil
	}
	offset %= len(data)
	data[offset] ^= 1 << (bit % 8)
	m.mu.Lock()
	m.corrupted[id] = data
	m.forgeType[id] = c.Type()
	m.mu.Unlock()
	return true, nil
}

// Forge arranges for future Gets of id to return an arbitrary payload.
func (m *MaliciousStore) Forge(id hash.Hash, typ chunk.Type, payload []byte) {
	m.mu.Lock()
	m.corrupted[id] = append([]byte(nil), payload...)
	m.forgeType[id] = typ
	m.mu.Unlock()
}

// Heal removes all injected attacks.
func (m *MaliciousStore) Heal() {
	m.mu.Lock()
	m.corrupted = make(map[hash.Hash][]byte)
	m.forgeType = make(map[hash.Hash]chunk.Type)
	m.mu.Unlock()
}

// AttackCount returns the number of ids currently being served forged data.
func (m *MaliciousStore) AttackCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.corrupted)
}

// VerifyingStore is the tamper guard the engine reads through: every chunk
// it returns hashes to the requested id, which is how a uid certifies the
// entire reachable object graph.  It makes no trust decision about the stack
// below it.  A chunk whose id was computed in this process (chunk.Claimed()
// == false) is already proven, so the guard only pins it to the requested
// id; a claimed chunk — from the wire, a fault injector, a malicious store,
// or a claimed write — is rehashed.  Over MemStore and FileStore, which only
// ever return proven chunks, a read costs one atomic load and one id
// comparison on top of the backend.
type VerifyingStore struct {
	Inner Store

	// workers is the explicit recheck-pool preference shared with the sink's
	// hasher tuning; 0 means "derive from GOMAXPROCS", negative pins batch
	// rechecks to the calling goroutine.
	workers atomic.Int64

	// rechecks counts claimed chunks this layer rehashed on reads.
	rechecks atomic.Int64
	// provenWrites counts written chunks whose provenance spared the recheck.
	provenWrites atomic.Int64
}

var _ Store = (*VerifyingStore)(nil)

// DefaultVerifyCacheBytes no longer sizes anything: verification keeps no
// cache of its own (each backend stamps its own records), so the constant
// survives only for callers that still report it.
const DefaultVerifyCacheBytes = 8 << 20

// NewVerifyingStore wraps inner with the tamper guard.
func NewVerifyingStore(inner Store) *VerifyingStore {
	return &VerifyingStore{Inner: inner}
}

// Unwrap exposes the inner store (capability discovery through As).
func (v *VerifyingStore) Unwrap() Store { return v.Inner }

// SetVerifyWorkers sets the batch-recheck worker preference (the same value
// as the sink's hasher tuning: n > 0 fixes the pool size, n < 0 pins
// rechecks to the caller, 0 restores the GOMAXPROCS-derived default).
func (v *VerifyingStore) SetVerifyWorkers(n int) { v.workers.Store(int64(n)) }

// verifyWorkers resolves the recheck pool width for one batch.
func (v *VerifyingStore) verifyWorkers() int {
	n := int(v.workers.Load())
	if n < 0 {
		return 1
	}
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
		if n > 4 {
			n = 4
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Put implements Store.  Chunks whose id was merely *claimed* by an
// untrusted party (chunk.NewClaimed) are rehashed and rejected on mismatch,
// so forged content cannot enter the store under a genuine id.
func (v *VerifyingStore) Put(ch *chunk.Chunk) (bool, error) {
	if !ch.Claimed() {
		v.provenWrites.Add(1)
	} else if err := ch.Recheck(); err != nil {
		return false, err
	}
	return v.Inner.Put(ch)
}

// PutBatch implements Store.  Every claimed chunk in the batch is
// rehashed — fanned out across the recheck pool — before anything is
// written: a single forged chunk rejects the whole batch, keeping batched
// ingest exactly as tamper-evident as the per-chunk path.
func (v *VerifyingStore) PutBatch(cs []*chunk.Chunk) ([]bool, error) {
	var work []int
	for i, ch := range cs {
		if !ch.Claimed() {
			v.provenWrites.Add(1)
			continue
		}
		work = append(work, i)
	}
	if err := recheckIndexes(cs, work, v.verifyWorkers()); err != nil {
		return make([]bool, len(cs)), err
	}
	return v.Inner.PutBatch(cs)
}

// Has implements Store.
func (v *VerifyingStore) Has(id hash.Hash) (bool, error) { return v.Inner.Has(id) }

// HasBatch implements Store by delegating (presence needs no verification;
// a forged chunk is caught when it is actually read).
func (v *VerifyingStore) HasBatch(ids []hash.Hash) ([]bool, error) { return v.Inner.HasBatch(ids) }

// Get implements Store, verifying content against id.
func (v *VerifyingStore) Get(id hash.Hash) (*chunk.Chunk, error) {
	c, err := v.Inner.Get(id)
	if err != nil {
		return nil, err
	}
	if err := c.Verify(id); err != nil {
		return nil, err
	}
	if c.Claimed() {
		v.rechecks.Add(1)
		if err := c.Recheck(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// GetBatch implements Store: every returned chunk passes the same
// checks as a point Get, with the rehashes of claimed chunks fanned out
// across the recheck pool, so repl catch-up and heal scale with cores.
func (v *VerifyingStore) GetBatch(ids []hash.Hash) ([]*chunk.Chunk, error) {
	out, err := v.Inner.GetBatch(ids)
	if err != nil {
		return out, err
	}
	var work []int
	for i, c := range out {
		if c == nil {
			continue
		}
		if err := c.Verify(ids[i]); err != nil {
			return out, err
		}
		if c.Claimed() {
			work = append(work, i)
		}
	}
	v.rechecks.Add(int64(len(work)))
	return out, recheckIndexes(out, work, v.verifyWorkers())
}

// recheckIndexes rehashes cs[i] for each i in idx, fanning out across up to
// `workers` goroutines when the batch is large enough to amortize the
// handoff.  First error wins; remaining work is still drained (rechecks are
// independent and promotion is useful even on a failing batch's survivors).
func recheckIndexes(cs []*chunk.Chunk, idx []int, workers int) error {
	// Below ~8 chunks per worker the goroutine handoff costs more than the
	// overlap buys; clamp the pool to keep every worker usefully busy.
	const minPerWorker = 8
	if workers > len(idx)/minPerWorker {
		workers = len(idx) / minPerWorker
	}
	if workers < 2 {
		for _, i := range idx {
			if err := cs[i].Recheck(); err != nil {
				return fmt.Errorf("batch chunk %d: %w", i, err)
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(idx) {
					return
				}
				if err := cs[idx[n]].Recheck(); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("batch chunk %d: %w", idx[n], err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Stats implements Store.
func (v *VerifyingStore) Stats() Stats { return v.Inner.Stats() }

// VerifyStats is a snapshot of how reads and writes were verified.
type VerifyStats struct {
	// Hits counts reads the backend served on its own stamp, paying no hash.
	Hits int64 `json:"hits"`
	// Misses counts reads that paid a rehash, in the backend or in the guard.
	Misses int64 `json:"misses"`
	// SkippedHashes counts every rehash avoided: stamp hits on reads plus
	// writes whose provenance spared the recheck.
	SkippedHashes int64 `json:"skipped_hashes"`
}

// VerifyStats combines the backend's read verdicts (Stats) with the
// guard's own rechecks.
func (v *VerifyingStore) VerifyStats() VerifyStats {
	st := v.Inner.Stats()
	return VerifyStats{
		Hits:          st.StampedGets,
		Misses:        st.HashedGets + v.rechecks.Load(),
		SkippedHashes: st.StampedGets + v.provenWrites.Load(),
	}
}
