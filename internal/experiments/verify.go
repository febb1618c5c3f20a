package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"forkbase/internal/chaos"
	"forkbase/internal/chunk"
	"forkbase/internal/hash"
	"forkbase/internal/store"
)

// flipRecordByte XORs one byte inside the first record's payload of a
// segment file: the record still parses, but its content no longer matches
// its id — silent rot, not a torn write.
func flipRecordByte(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	// Record layout: 32-byte id, 4-byte length, 1-byte type, payload.
	off := int64(hash.Size + 4 + 1 + 5)
	b := []byte{0}
	if _, err := f.ReadAt(b, off); err != nil {
		return err
	}
	b[0] ^= 0x20
	if _, err := f.WriteAt(b, off); err != nil {
		return err
	}
	return f.Sync()
}

// VerifyReport is the amortized-verification experiment (BENCH_10).  It
// answers three questions with hard gates:
//
//  1. Amortization — is a warm point get through the verifying store (the
//     FileStore serves it on its index stamp) at least 3x faster than
//     rehashing every read (FileStore.Get plus a SHA-256), and within 15% of
//     the bare FileStore.Get?  "Bare" includes the FileStore's own stamp
//     compare: the store never returns unverified bytes.
//  2. One hash per chunk — does bulk ingest through the sink and the
//     verifying store pay exactly one digest per chunk (provenance honored)?
//  3. Trust — do stamps change any detection outcome?  A tamper matrix
//     (malicious substitution, forged claimed put, rot behind a stamp caught
//     by scrub and repaired) must detect every attack.
type VerifyReport struct {
	Suite      string `json:"suite"`
	Quick      bool   `json:"quick"`
	Seed       int64  `json:"seed"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	ElapsedNs  int64  `json:"elapsed_ns"`

	// Workload shape.
	Chunks       int   `json:"chunks"`
	ChunkBytes   int   `json:"chunk_bytes"`
	PointGets    int   `json:"point_gets"`
	SegmentsLive int64 `json:"segments_live"`

	// Warm point-get latency per stack (same sealed chunks, same id order).
	BareNsPerGet     float64 `json:"bare_ns_per_get"`
	RehashNsPerGet   float64 `json:"rehash_ns_per_get"`
	VerifiedNsPerGet float64 `json:"verified_ns_per_get"`
	SpeedupVsRehash  float64 `json:"speedup_vs_rehash"`
	OverheadVsBare   float64 `json:"overhead_vs_bare"` // verified/bare - 1
	SpeedupOK        bool    `json:"speedup_ok"`       // verified ≥3x faster than rehash
	OverheadOK       bool    `json:"overhead_ok"`      // verified within 15% of bare

	// Parallel cold-batch recheck of claimed chunks, as a remote store hands
	// them back (report-only: flat on one core).
	ColdBatchW1NsPerChunk float64 `json:"cold_batch_w1_ns_per_chunk"`
	ColdBatchWNNsPerChunk float64 `json:"cold_batch_wn_ns_per_chunk"`
	BatchWorkers          int     `json:"batch_workers"`

	// Verification accounting after the timed passes.  Hits and misses are
	// the FileStore's, so they include the bare and rehash stacks' reads.
	VerifyHits    int64 `json:"verify_hits"`
	VerifyMisses  int64 `json:"verify_misses"`
	SkippedHashes int64 `json:"skipped_hashes"`

	// Ingest: exactly one digest per chunk, end to end.
	IngestChunks    int   `json:"ingest_chunks"`
	IngestDigests   int64 `json:"ingest_digests"`
	OneHashPerChunk bool  `json:"one_hash_per_chunk"`

	// Tamper matrix: every attack must be detected with every record stamped.
	TamperFlipDetected      bool `json:"tamper_flip_detected"`       // malicious substitution on read
	TamperForgedPutRejected bool `json:"tamper_forged_put_rejected"` // claimed chunk with wrong id
	TamperRotScrubDetected  bool `json:"tamper_rot_scrub_detected"`  // rot behind a stamp, scrub classifies
	TamperRotRepaired       bool `json:"tamper_rot_repaired"`        // repair lands, read re-verifies

	Passed bool `json:"passed"`
}

const verifySeed = 10

// claimedStore hands back every chunk of its inner store under a claimed
// id, as a remote store does, so a verifying store above must rehash each.
type claimedStore struct{ store.Store }

func (s claimedStore) Get(id hash.Hash) (*chunk.Chunk, error) {
	c, err := s.Store.Get(id)
	if err != nil {
		return nil, err
	}
	return chunk.NewClaimed(c.Type(), c.Data(), id), nil
}

func (s claimedStore) GetBatch(ids []hash.Hash) ([]*chunk.Chunk, error) {
	out, err := s.Store.GetBatch(ids)
	for i, c := range out {
		if c != nil {
			out[i] = chunk.NewClaimed(c.Type(), c.Data(), ids[i])
		}
	}
	return out, err
}

// RunVerify executes the amortized-verification experiment.
func RunVerify(quick bool) (*VerifyReport, error) {
	chunks, gets := 4000, 120_000
	if quick {
		chunks, gets = 1500, 30_000
	}
	const chunkBytes = 4096
	rep := &VerifyReport{
		Suite:      "forkbase-verify",
		Quick:      quick,
		Seed:       verifySeed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		Chunks:     chunks,
		ChunkBytes: chunkBytes,
		PointGets:  gets,
	}
	start := time.Now()

	dir, err := os.MkdirTemp("", "forkbase-verify-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// ---- Seed: one multi-segment file store; every measured stack reads the
	// same sealed, mmap-served chunks.
	fs, err := store.OpenFileStoreWith(dir, store.FileStoreOptions{SegmentSize: 1 << 20})
	if err != nil {
		return nil, err
	}
	defer fs.Close()
	rng := rand.New(rand.NewSource(verifySeed))
	ids := make([]hash.Hash, chunks)
	payloads := make(map[hash.Hash][]byte, chunks)
	payload := make([]byte, chunkBytes)
	for i := 0; i < chunks; i++ {
		rng.Read(payload)
		p := append([]byte(nil), payload...)
		c := chunk.New(chunk.TypeBlobLeaf, p)
		if _, err := fs.Put(c); err != nil {
			return nil, err
		}
		ids[i] = c.ID()
		payloads[c.ID()] = p
	}
	if err := fs.Flush(); err != nil {
		return nil, err
	}
	// Seal the tail so every measured read is served from a mapping: push
	// throwaway chunks until the store rotates past the last measured
	// record (rotation creates the next segment file).
	before, err := chaos.SegmentFiles(dir)
	if err != nil {
		return nil, err
	}
	for {
		rng.Read(payload)
		if _, err := fs.Put(chunk.New(chunk.TypeBlobLeaf, append([]byte(nil), payload...))); err != nil {
			return nil, err
		}
		cur, err := chaos.SegmentFiles(dir)
		if err != nil {
			return nil, err
		}
		if len(cur) > len(before) {
			break
		}
	}
	if err := fs.Flush(); err != nil {
		return nil, err
	}
	segs, err := chaos.SegmentFiles(dir)
	if err != nil {
		return nil, err
	}
	rep.SegmentsLive = int64(len(segs))

	verified := store.NewVerifyingStore(fs)
	// Rehash-every-read: what a verifier that trusts no stored verdict pays.
	rehash := func(id hash.Hash) (*chunk.Chunk, error) {
		c, err := fs.Get(id)
		if err != nil {
			return nil, err
		}
		if hash.SumTagged(byte(c.Type()), c.Data()) != id {
			return nil, fmt.Errorf("verify: %s rehashes differently", id.Short())
		}
		return c, nil
	}

	// Warm the OS page cache for every stack (every record is stamped
	// already: this process wrote it).
	if _, err := verified.GetBatch(ids); err != nil {
		return nil, err
	}

	// Same pseudo-random id order for every stack.  The three stacks are
	// timed in interleaved rounds and each reports its per-round median, so
	// a scheduler hiccup or page-cache wobble during one stretch cannot
	// charge a whole stack: nanosecond-scale ratios (the ≤15% overhead gate)
	// need paired measurements, not three long disjoint passes.
	const rounds = 5
	order := rng.Perm(chunks)
	timeRound := func(get func(hash.Hash) (*chunk.Chunk, error), n int) (float64, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			id := ids[order[i%chunks]]
			c, err := get(id)
			if err != nil {
				return 0, err
			}
			if c == nil {
				return 0, fmt.Errorf("verify: chunk %s missing", id.Short())
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(n), nil
	}
	perRound := gets / rounds
	var bareR, rehashR, verifiedR []float64
	for r := 0; r < rounds; r++ {
		for _, s := range []struct {
			get  func(hash.Hash) (*chunk.Chunk, error)
			into *[]float64
		}{{fs.Get, &bareR}, {rehash, &rehashR}, {verified.Get, &verifiedR}} {
			// Untimed warm-up re-primes icache/branch state for *this* stack:
			// the rehash stack's 4KB SHA inner loop otherwise pollutes
			// whichever stack is timed right after it.
			if _, err := timeRound(s.get, perRound/8); err != nil {
				return nil, err
			}
			ns, err := timeRound(s.get, perRound)
			if err != nil {
				return nil, err
			}
			*s.into = append(*s.into, ns)
		}
	}
	median := func(xs []float64) float64 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return s[len(s)/2]
	}
	rep.BareNsPerGet = median(bareR)
	rep.RehashNsPerGet = median(rehashR)
	rep.VerifiedNsPerGet = median(verifiedR)
	rep.SpeedupVsRehash = rep.RehashNsPerGet / rep.VerifiedNsPerGet
	rep.OverheadVsBare = rep.VerifiedNsPerGet/rep.BareNsPerGet - 1
	rep.SpeedupOK = rep.SpeedupVsRehash >= 3.0
	rep.OverheadOK = rep.OverheadVsBare <= 0.15

	// ---- Parallel cold-batch recheck: every chunk comes back claimed, as
	// from a remote store, so the pool rehashes the whole batch.  Flat on
	// one core; reported so multi-core CI shows the fan-out.  A batch that
	// rechecks fewer than every chunk measures nothing, so it fails the run.
	coldBatch := func(workers int) (float64, error) {
		v := store.NewVerifyingStore(claimedStore{fs})
		v.SetVerifyWorkers(workers)
		misses := v.VerifyStats().Misses
		t0 := time.Now()
		if _, err := v.GetBatch(ids); err != nil {
			return 0, err
		}
		ns := float64(time.Since(t0).Nanoseconds()) / float64(chunks)
		if n := v.VerifyStats().Misses - misses; n != int64(chunks) {
			return 0, fmt.Errorf("verify: cold batch rechecked %d of %d chunks", n, chunks)
		}
		return ns, nil
	}
	if rep.ColdBatchW1NsPerChunk, err = coldBatch(1); err != nil {
		return nil, err
	}
	rep.BatchWorkers = runtime.GOMAXPROCS(0)
	if rep.ColdBatchWNNsPerChunk, err = coldBatch(rep.BatchWorkers); err != nil {
		return nil, err
	}

	st := verified.VerifyStats()
	rep.VerifyHits = st.Hits
	rep.VerifyMisses = st.Misses
	rep.SkippedHashes = st.SkippedHashes

	// ---- Ingest: one digest per chunk through sink + verifying store.
	ingest := chunks / 2
	{
		v := store.NewVerifyingStore(store.NewMemStore())
		sink := store.NewChunkSink(v, store.SinkOptions{BatchSize: store.DefaultSinkBatch})
		before := hash.Digests()
		enc := make([]byte, 1+chunkBytes)
		enc[0] = byte(chunk.TypeBlobLeaf)
		for i := 0; i < ingest; i++ {
			rng.Read(enc[1:])
			if _, err := sink.Emit(chunk.TypeBlobLeaf, enc); err != nil {
				sink.Close()
				return nil, err
			}
		}
		if err := sink.Flush(); err != nil {
			sink.Close()
			return nil, err
		}
		rep.IngestChunks = ingest
		rep.IngestDigests = hash.Digests() - before
		rep.OneHashPerChunk = rep.IngestDigests == int64(ingest)
		sink.Close()
	}

	// ---- Tamper matrix.  Case 1: malicious substitution on the read path.
	{
		mal := store.NewMaliciousStore(store.NewMemStore())
		v := store.NewVerifyingStore(mal)
		c := chunk.New(chunk.TypeBlobLeaf, []byte("tamper-matrix-flip"))
		if _, err := v.Put(c); err != nil {
			return nil, err
		}
		if _, err := v.Get(c.ID()); err != nil {
			return nil, err
		}
		if ok, err := mal.CorruptFlip(c.ID(), 2, 1); err != nil || !ok {
			return nil, fmt.Errorf("verify: CorruptFlip failed: %v", err)
		}
		_, err := v.Get(c.ID())
		rep.TamperFlipDetected = err != nil
	}
	// Case 2: a claimed chunk whose id does not cover its payload must be
	// rejected at the write boundary.
	{
		v := store.NewVerifyingStore(store.NewMemStore())
		genuine := chunk.New(chunk.TypeBlobLeaf, []byte("tamper-matrix-forge"))
		forged := chunk.NewClaimed(chunk.TypeBlobLeaf, []byte("not the same payload"), genuine.ID())
		_, err := v.Put(forged)
		rep.TamperForgedPutRejected = err != nil
	}
	// Case 3: rot that lands behind a stamp — the stamp's one staleness
	// window — must still be classified by scrub and repairable.  Every
	// measured record is stamped and was read in the timed passes.
	{
		segs, err := chaos.SegmentFiles(dir)
		if err != nil {
			return nil, err
		}
		if len(segs) < 2 {
			return nil, fmt.Errorf("verify: only %d segments to rot", len(segs))
		}
		if err := flipRecordByte(segs[0]); err != nil {
			return nil, err
		}
		scr, err := fs.Scrub()
		if err != nil {
			return nil, err
		}
		rep.TamperRotScrubDetected = scr.Corrupt >= 1 && len(scr.Lost) >= 1
		repaired := len(scr.Lost) > 0
		for _, lost := range scr.Lost {
			p, ok := payloads[lost]
			if !ok {
				repaired = false
				break
			}
			if err := fs.Repair(chunk.New(chunk.TypeBlobLeaf, p)); err != nil {
				repaired = false
				break
			}
			if _, err := verified.Get(lost); err != nil {
				repaired = false
				break
			}
		}
		rep.TamperRotRepaired = repaired && fs.Health() == nil
	}

	rep.ElapsedNs = time.Since(start).Nanoseconds()
	rep.Passed = rep.SpeedupOK && rep.OverheadOK && rep.OneHashPerChunk &&
		rep.TamperFlipDetected && rep.TamperForgedPutRejected &&
		rep.TamperRotScrubDetected && rep.TamperRotRepaired
	return rep, nil
}

// PrintVerify renders the report.
func PrintVerify(w io.Writer, rep *VerifyReport) {
	fmt.Fprintf(w, "Verify experiment: amortized verification (seed=%d, GOMAXPROCS=%d, %s)\n",
		rep.Seed, rep.GoMaxProcs, rep.GoVersion)
	fmt.Fprintf(w, "  workload                 %d chunks × %d B sealed, %d point gets per stack\n",
		rep.Chunks, rep.ChunkBytes, rep.PointGets)
	fmt.Fprintf(w, "  warm point get           bare %.0fns  rehash %.0fns  verified %.0fns\n",
		rep.BareNsPerGet, rep.RehashNsPerGet, rep.VerifiedNsPerGet)
	fmt.Fprintf(w, "  gates                    %.1fx vs rehash (need ≥3x: %v), %+.1f%% vs bare (need ≤15%%: %v)\n",
		rep.SpeedupVsRehash, rep.SpeedupOK, rep.OverheadVsBare*100, rep.OverheadOK)
	fmt.Fprintf(w, "  cold batch recheck       %.0fns/chunk @1 worker, %.0fns/chunk @%d workers\n",
		rep.ColdBatchW1NsPerChunk, rep.ColdBatchWNNsPerChunk, rep.BatchWorkers)
	fmt.Fprintf(w, "  verify                   %d stamped reads / %d rehashed reads, %d hashes skipped\n",
		rep.VerifyHits, rep.VerifyMisses, rep.SkippedHashes)
	fmt.Fprintf(w, "  ingest                   %d chunks → %d digests (one-hash-per-chunk: %v)\n",
		rep.IngestChunks, rep.IngestDigests, rep.OneHashPerChunk)
	fmt.Fprintf(w, "  tamper matrix            flip=%v forged-put=%v rot-scrub=%v rot-repair=%v\n",
		rep.TamperFlipDetected, rep.TamperForgedPutRejected, rep.TamperRotScrubDetected, rep.TamperRotRepaired)
	verdict := "PASS"
	if !rep.Passed {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "  verdict                  %s  elapsed %.1fs\n", verdict, float64(rep.ElapsedNs)/1e9)
}

// WriteVerifyJSON writes the report to path.
func WriteVerifyJSON(path string, rep *VerifyReport) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
