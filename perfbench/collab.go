package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"forkbase/internal/core"
	"forkbase/internal/dataset"
	"forkbase/internal/hash"
	"forkbase/internal/index"
	"forkbase/internal/obs"
	"forkbase/internal/workload"
)

const collabKey = "table"

// collabModel is the oracle's copy of every branch: the initial table plus,
// per branch, the rows that differ from it.  Branch 0 is master; branch
// i+1 belongs to client i.
type collabModel struct {
	encoded  [][]byte         // encodeRow of each initial row
	branches []map[int][]byte // per-branch overrides
	heads    []hash.Hash      // per-branch head of the last acknowledged write
	names    []string
}

func (m *collabModel) value(b, row int) []byte {
	if v, ok := m.branches[b][row]; ok {
		return v
	}
	return m.encoded[row]
}

// diffCount is how many rows differ between branches a and b.
func (m *collabModel) diffCount(a, b int) int {
	n := 0
	for row := range m.branches[a] {
		if !bytes.Equal(m.value(a, row), m.value(b, row)) {
			n++
		}
	}
	for row := range m.branches[b] {
		if _, seen := m.branches[a][row]; !seen && !bytes.Equal(m.value(a, row), m.value(b, row)) {
			n++
		}
	}
	return n
}

// runCollab is the collab-edit workload.  Client i owns the rows whose
// index is congruent to i, so the collaborators never edit the same row and
// every merge is conflict-free.  Merges into master take turns under a
// lock, as collaborators coordinate pushes, so the model of master is exact
// whenever a diff or a merge is checked.
func runCollab(cfg *config) (*outcome, error) {
	o := &outcome{}
	schema, rows := workload.GenerateTable(workload.CSVSpec{Rows: cfg.collabRows, Columns: 6, Seed: cfg.seed})
	csvText := renderCSV(schema, rows)
	m := &collabModel{names: []string{core.DefaultBranch}, branches: []map[int][]byte{{}}}
	m.encoded = make([][]byte, len(rows))
	for i, r := range rows {
		m.encoded[i] = encodeRow(r)
	}
	for i := 0; i < cfg.clients; i++ {
		m.names = append(m.names, fmt.Sprintf("collab-%d", i))
		m.branches = append(m.branches, map[int][]byte{})
	}

	var db *localDB
	for rep := 0; rep < cfg.setupReps; rep++ {
		if db != nil {
			db.discard()
		}
		runtime.GC() // every setup starts from the same heap
		start := time.Now()
		var err error
		if db, err = openLocal(filepath.Join(cfg.workDir, fmt.Sprintf("collab-%d", rep)), cfg.trace); err != nil {
			return nil, err
		}
		o.ing = ingest{}
		if _, err = o.ing.load(db.eng, collabKey, core.DefaultBranch, csvText); err == nil {
			for _, b := range m.names[1:] {
				if err = db.eng.Branch(collabKey, b, core.DefaultBranch); err != nil {
					break
				}
			}
		}
		if err != nil {
			db.discard()
			return nil, err
		}
		o.setup = append(o.setup, time.Since(start))
	}
	defer os.RemoveAll(db.dir)
	initial, err := db.eng.Head(collabKey, core.DefaultBranch)
	if err != nil {
		db.close()
		return nil, err
	}
	m.heads = make([]hash.Hash, len(m.names))
	for b := range m.heads {
		m.heads[b] = initial
	}
	if cfg.corrupt {
		m.encoded[0] = encodeRow(dataset.Row{"corrupted"})
	}

	var masterMu sync.Mutex
	rngs := make([]*rand.Rand, cfg.clients)
	commits := make([]int, cfg.clients)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(cfg.seed*7919 + int64(i)))
	}
	owned := func(i int) int { return (cfg.collabRows - i + cfg.clients - 1) / cfg.clients }
	eng := db.eng
	body := func(i int, r *recorder, deadline time.Time) error {
		own, rng := i+1, rngs[i]
		commits[i]++
		// Commit cfg.collabEdits distinct rows at uniform random keys of
		// this client, each with one cell rewritten to a value never used
		// before.
		puts := make([]index.Entry, 0, cfg.collabEdits)
		edits := map[int][]byte{}
		for len(puts) < cfg.collabEdits {
			row := i + cfg.clients*rng.Intn(owned(i))
			if _, dup := edits[row]; dup {
				continue
			}
			edited := append(dataset.Row(nil), rows[row]...)
			edited[1+rng.Intn(len(edited)-1)] = fmt.Sprintf("edit %d.%d.%d", i, commits[i], row)
			edits[row] = encodeRow(edited)
			puts = append(puts, index.Entry{Key: []byte(rowKey(row)), Val: edits[row]})
		}
		var ver core.Version
		err := r.op(opCommit, func() error {
			return r.span("core.commit", func() (err error) {
				ver, err = eng.EditMap(collabKey, m.names[own], puts, nil, nil)
				return err
			})
		})
		if err == nil {
			m.heads[own] = ver.UID
			for row, v := range edits {
				m.branches[own][row] = v
				r.userBytes += int64(len(rowKey(row)) + len(v))
			}
		}
		// Read cfg.collabReads random rows at this client's branch head.
		for k := 0; k < cfg.collabReads; k++ {
			row := rng.Intn(cfg.collabRows)
			var got []byte
			err := r.op(opRead, func() (err error) {
				got, err = readRow(r, eng, m.names[own], rowKey(row))
				return err
			})
			if err == nil && !bytes.Equal(got, m.value(own, row)) {
				return fmt.Errorf("collab-edit: %s row %d reads %q, model has %q", m.names[own], row, got, m.value(own, row))
			}
		}
		if commits[i]%cfg.mergeEvery != 0 || !time.Now().Before(deadline) {
			return nil
		}
		masterMu.Lock()
		defer masterMu.Unlock()
		return collabDiffMerge(r, eng, m, own)
	}
	read := func() counters { return readCounters([]*obs.Registry{db.reg}, "file", nil, db.fs) }
	if err := runPhases(cfg, o, read, db.cas, body); err != nil {
		db.close()
		return o, err
	}
	o.physical, o.logical = o.untraced.delta["store.physical_bytes"], float64(o.untraced.rec.userBytes)
	if t := o.traced; t != nil {
		// Every Merge the benchmark sent is one engine merge op; every
		// DB.Get is one engine get op (EditMap reads its head through Get
		// as well, so gets may exceed the reads, never fall short).
		d, rec := t.delta, t.rec
		var err error
		switch {
		case d["engine.merge"] != float64(rec.tries[opMerge]):
			err = fmt.Errorf("registry: engine merge ops %v, benchmark sent %d", d["engine.merge"], rec.tries[opMerge])
		case d["engine.get"] < float64(rec.tries[opRead]):
			err = fmt.Errorf("registry: engine get ops %v, benchmark sent %d reads", d["engine.get"], rec.tries[opRead])
		case d["engine.errors"] > float64(rec.failed):
			err = fmt.Errorf("registry: engine errors %v, benchmark saw %d failed ops", d["engine.errors"], rec.failed)
		}
		if err != nil {
			db.close()
			return o, err
		}
		o.notes = append(o.notes, fmt.Sprintf("registry reconciled: engine merge=%v (sent %d), get=%v (reads sent %d), errors=%v",
			d["engine.merge"], rec.tries[opMerge], d["engine.get"], rec.tries[opRead], d["engine.errors"]))
	}
	note, err := collabReopen(cfg, db, m)
	o.notes = append(o.notes, note)
	return o, err
}

// readRow is one map read at a branch head: DB.Get, DB.IndexOf, Index.Get.
func readRow(r *recorder, eng *core.DB, branch, key string) ([]byte, error) {
	var v core.Version
	if err := r.span("core.get", func() (err error) { v, err = eng.Get(collabKey, branch); return }); err != nil {
		return nil, err
	}
	return lookup(r, eng, v, key)
}

// lookup opens a version's index and reads one key: DB.IndexOf, Index.Get.
func lookup(r *recorder, eng *core.DB, v core.Version, key string) ([]byte, error) {
	var ix index.VersionedIndex
	if err := r.span("index.open", func() (err error) { ix, err = eng.IndexOf(v); return }); err != nil {
		return nil, err
	}
	var got []byte
	err := r.span("index.lookup", func() (err error) { got, err = ix.Get([]byte(key)); return })
	return got, err
}

// collabDiffMerge diffs the client's branch against master, merges it into
// master, and checks both against the model.  The caller holds the master
// lock, so no other write moves master meanwhile: a stale-head error would
// be a failure, not a lost race.
func collabDiffMerge(r *recorder, eng *core.DB, m *collabModel, own int) error {
	var deltas []index.Delta
	err := r.op(opDiff, func() error {
		return r.span("core.diff", func() error {
			d, st, err := eng.DiffBranches(collabKey, m.names[own], core.DefaultBranch)
			deltas = d
			r.diffTouched, r.diffPruned = r.diffTouched+st.TouchedChunks, r.diffPruned+st.PrunedRefs
			return err
		})
	})
	if err == nil {
		if want := m.diffCount(own, 0); len(deltas) != want {
			return fmt.Errorf("collab-edit: diff %s..master has %d deltas, model has %d", m.names[own], len(deltas), want)
		}
		if err := checkDeltas(deltas, func(row int) []byte { return m.value(own, row) }, func(row int) []byte { return m.value(0, row) }); err != nil {
			return fmt.Errorf("collab-edit: diff %s..master: %w", m.names[own], err)
		}
	}
	var merged core.MergeResult
	err = r.op(opMerge, func() error {
		return r.span("core.merge", func() (err error) {
			merged, err = eng.Merge(collabKey, core.DefaultBranch, m.names[own], nil, nil)
			return err
		})
	})
	if err != nil {
		return nil // a failed op, counted in error_rate
	}
	// The merge moved master by exactly this client's rows that master did
	// not have yet, to this client's values.
	moved, _, err := eng.Diff(collabKey, m.heads[0], merged.Version.UID)
	if err != nil {
		return err
	}
	want := 0
	for row, v := range m.branches[own] {
		if !bytes.Equal(m.value(0, row), v) {
			want++
		}
	}
	if len(moved) != want {
		return fmt.Errorf("collab-edit: merge of %s moved %d rows of master, model expects %d", m.names[own], len(moved), want)
	}
	if err := checkDeltas(moved, func(row int) []byte { return m.value(0, row) }, func(row int) []byte { return m.value(own, row) }); err != nil {
		return fmt.Errorf("collab-edit: merge of %s: %w", m.names[own], err)
	}
	for row, v := range m.branches[own] {
		m.branches[0][row] = v
	}
	m.heads[0] = merged.Version.UID
	return nil
}

// checkDeltas checks that every delta turns the model's from-value of its
// row into the model's to-value.
func checkDeltas(deltas []index.Delta, from, to func(row int) []byte) error {
	for _, d := range deltas {
		row, err := rowIndex(string(d.Key))
		if err != nil {
			return err
		}
		if !bytes.Equal(d.From, from(row)) || !bytes.Equal(d.To, to(row)) {
			return fmt.Errorf("row %d delta %q -> %q, model has %q -> %q", row, d.From, d.To, from(row), to(row))
		}
	}
	return nil
}

func rowIndex(key string) (int, error) {
	n, err := strconv.Atoi(strings.TrimPrefix(key, "id-"))
	if err != nil {
		return 0, fmt.Errorf("unexpected row key %q", key)
	}
	return n, nil
}

// collabReopen closes the DB, reopens it from the same directory, checks
// that every branch head is the one its last acknowledged write returned,
// and scans every branch against the model.
func collabReopen(cfg *config, db *localDB, m *collabModel) (string, error) {
	if err := db.close(); err != nil {
		return "", err
	}
	re, err := openLocal(db.dir, false)
	if err != nil {
		return "", err
	}
	defer re.close()
	for b, name := range m.names {
		uid, err := re.eng.Head(collabKey, name)
		if err != nil {
			return "", err
		}
		if uid != m.heads[b] {
			return "", fmt.Errorf("collab-edit reopen: %s head %s, acknowledged %s", name, uid.Short(), m.heads[b].Short())
		}
		v, err := re.eng.GetVersion(collabKey, uid)
		if err != nil {
			return "", err
		}
		ix, err := re.eng.IndexOf(v)
		if err != nil {
			return "", err
		}
		it, err := ix.Iterate()
		if err != nil {
			return "", err
		}
		n := 0
		for ; it.Next(); n++ {
			e := it.Entry()
			if string(e.Key) != rowKey(n) || !bytes.Equal(e.Val, m.value(b, n)) {
				return "", fmt.Errorf("collab-edit reopen: %s entry %d is %q=%q, model has %q=%q", name, n, e.Key, e.Val, rowKey(n), m.value(b, n))
			}
		}
		if err := it.Err(); err != nil {
			return "", err
		}
		if n != cfg.collabRows {
			return "", fmt.Errorf("collab-edit reopen: %s has %d rows, model has %d", name, n, cfg.collabRows)
		}
	}
	return fmt.Sprintf("reopen (flush policy %s): %d branch heads identical; every row of every branch matches the model", flushPolicy, len(m.names)), nil
}
