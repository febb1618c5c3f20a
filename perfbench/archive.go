package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"forkbase/internal/core"
	"forkbase/internal/dataset"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/obs"
	"forkbase/internal/workload"
)

const archiveKey = "vendor"

// archiveModel is the generator's history: the rows of version 0 and, per
// row, every later version that changed it.
type archiveModel struct {
	schema    dataset.Schema
	base      []dataset.Row
	changes   map[int][]rowChange // row -> changes in version order
	changedAt [][]int             // version -> rows it changed
}

type rowChange struct {
	version int
	row     dataset.Row
	enc     []byte
}

func newArchiveModel(cfg *config) *archiveModel {
	schema, rows := workload.GenerateTable(workload.CSVSpec{Rows: cfg.archiveRows, Columns: 6, Seed: cfg.seed})
	m := &archiveModel{schema: schema, base: rows, changes: map[int][]rowChange{}, changedAt: make([][]int, cfg.archiveVersions)}
	cur := rows
	for v := 1; v < cfg.archiveVersions; v++ {
		next := workload.MutateRows(schema, cur, cfg.archiveRows/100, 0, 0, cfg.seed*1009+int64(v))
		for j := range next {
			if !slices.Equal(next[j], cur[j]) {
				m.changes[j] = append(m.changes[j], rowChange{version: v, row: next[j], enc: encodeRow(next[j])})
				m.changedAt[v] = append(m.changedAt[v], j)
			}
		}
		cur = next
	}
	return m
}

// expected is row j as of version v, encoded.
func (m *archiveModel) expected(j, v int) []byte {
	var enc []byte
	for _, c := range m.changes[j] {
		if c.version > v {
			break
		}
		enc = c.enc
	}
	if enc == nil {
		return encodeRow(m.base[j])
	}
	return enc
}

// importAll imports every version as the next commit on master and
// returns the version uids.  Rendering each version's CSV is input
// generation and is not timed; in.load times parse and build.
func (m *archiveModel) importAll(eng *core.DB, in *ingest) ([]hash.Hash, error) {
	work := append([]dataset.Row(nil), m.base...)
	uids := make([]hash.Hash, len(m.changedAt))
	for v := range m.changedAt {
		for _, j := range m.changedAt[v] {
			for _, c := range m.changes[j] {
				if c.version == v {
					work[j] = c.row
				}
			}
		}
		ds, err := in.load(eng, archiveKey, core.DefaultBranch, renderCSV(m.schema, work))
		if err != nil {
			return nil, err
		}
		uids[v] = ds.Version().UID
	}
	return uids, nil
}

// runArchive is the archive-scan workload.
func runArchive(cfg *config) (*outcome, error) {
	o := &outcome{}
	m := newArchiveModel(cfg)
	var db *localDB
	var uids []hash.Hash
	for rep := 0; rep < cfg.setupReps; rep++ {
		if db != nil {
			db.discard()
		}
		runtime.GC() // every setup starts from the same heap
		start := time.Now()
		var err error
		if db, err = openLocal(filepath.Join(cfg.workDir, fmt.Sprintf("archive-%d", rep)), cfg.trace); err != nil {
			return nil, err
		}
		opened := time.Since(start)
		o.ing = ingest{}
		if uids, err = m.importAll(db.eng, &o.ing); err != nil {
			db.discard()
			return nil, err
		}
		o.setup = append(o.setup, opened+o.ing.total())
	}
	defer db.discard()
	if cfg.corrupt {
		m.base[0] = dataset.Row{"corrupted"}
	}

	rngs := make([]*rand.Rand, cfg.clients)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(cfg.seed*7919 + int64(i)))
	}
	// Each client runs one diff per diffEvery of timed load, at fixed
	// offsets from the start of the phase (or slice), so every run does the
	// same number of diffs and diff_p50_ms rests on the same count.
	diffEvery := time.Duration(cfg.seconds * float64(cfg.clients) / float64(cfg.archiveDiffs) * float64(time.Second))
	nextDiff := make([]int, cfg.clients)
	phaseStart := make([]time.Time, cfg.clients)
	eng := db.eng
	body := func(i int, r *recorder, deadline time.Time) error {
		rng := rngs[i]
		if r.t0 != phaseStart[i] {
			phaseStart[i], nextDiff[i] = r.t0, 0
		}
		due := r.t0.Add(diffEvery/2 + time.Duration(nextDiff[i])*diffEvery)
		if due.Before(deadline) && !time.Now().Before(due) {
			nextDiff[i]++
			return archiveDiff(r, eng, m, uids, 1+rng.Intn(len(uids)-1))
		}
		v, j := rng.Intn(len(uids)), rng.Intn(cfg.archiveRows)
		var got []byte
		err := r.op(opRead, func() error {
			var ver core.Version
			if err := r.span("core.get", func() (err error) { ver, err = eng.GetVersion(archiveKey, uids[v]); return }); err != nil {
				return err
			}
			var err error
			got, err = lookup(r, eng, ver, rowKey(j))
			return err
		})
		if err == nil && !bytes.Equal(got, m.expected(j, v)) {
			return fmt.Errorf("archive-scan: row %d at version %d reads %q, generator has %q", j, v, got, m.expected(j, v))
		}
		return nil
	}
	// The workload's writes are the imports: the store holds nothing else.
	o.physical, o.logical = float64(db.fs.Stats().PhysicalBytes), float64(o.ing.bytes)
	read := func() counters { return readCounters([]*obs.Registry{db.reg}, "file", nil, db.fs) }
	if err := runPhases(cfg, o, read, db.cas, body); err != nil {
		return o, err
	}
	if t := o.traced; t != nil {
		// The phase only reads: the engine commits nothing and the store
		// takes no chunk writes.
		d := t.delta
		if w := d["engine.put"] + d["engine.merge"] + d["engine.write_batch"] + d["store.put"] + d["store.put_batch"]; w != 0 {
			return o, fmt.Errorf("registry: a read-only phase counted %v engine or store writes", w)
		}
		o.notes = append(o.notes, "registry reconciled: read-only phase counted 0 engine commits and 0 store writes")
	}
	return o, nil
}

// archiveDiff diffs adjacent versions v-1 and v and checks the deltas
// against the generator.
func archiveDiff(r *recorder, eng *core.DB, m *archiveModel, uids []hash.Hash, v int) error {
	var deltas []index.Delta
	err := r.op(opDiff, func() error {
		return r.span("core.diff", func() error {
			d, st, err := eng.Diff(archiveKey, uids[v-1], uids[v])
			deltas = d
			r.diffTouched, r.diffPruned = r.diffTouched+st.TouchedChunks, r.diffPruned+st.PrunedRefs
			return err
		})
	})
	if err != nil {
		return nil // a failed op, counted in error_rate
	}
	if len(deltas) != len(m.changedAt[v]) {
		return fmt.Errorf("archive-scan: diff of versions %d..%d has %d deltas, generator changed %d rows", v-1, v, len(deltas), len(m.changedAt[v]))
	}
	if err := checkDeltas(deltas, func(j int) []byte { return m.expected(j, v-1) }, func(j int) []byte { return m.expected(j, v) }); err != nil {
		return fmt.Errorf("archive-scan: diff of versions %d..%d: %w", v-1, v, err)
	}
	return nil
}
