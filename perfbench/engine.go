package main

import (
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"fmt"
	"os"
	"time"

	"forkbase/internal/core"
	"forkbase/internal/dataset"
	"forkbase/internal/obs"
	"forkbase/internal/store"
)

// Settings that hold in every workload.  The node-cache budget is fixed:
// collab-edit's working set fits in it, archive-scan's on-disk data is
// several times larger.  The verify cache and the FileStore flush policy
// are the program's defaults.
const (
	nodeCacheBytes   = 32 << 20
	verifyCacheBytes = store.DefaultVerifyCacheBytes
	flushPolicy      = "SyncNone" // store.OpenFileStore's default
)

// localDB is a file-backed engine wired the way forkbase.Open(FileBacked,
// WithNodeCache, WithMetrics) wires one, except that the benchmark holds
// the branch table it hands to core.Open so traced runs can time its CAS.
type localDB struct {
	dir string
	fs  *store.FileStore
	eng *core.DB
	reg *obs.Registry
	cas *timedBranches // nil unless tracing
}

func openLocal(dir string, trace bool) (*localDB, error) {
	fs, err := store.OpenFileStore(dir)
	if err != nil {
		return nil, err
	}
	bt, err := core.OpenFileBranchTable(dir)
	if err != nil {
		fs.Close()
		return nil, err
	}
	heads, cas := maybeTimed(bt, trace)
	reg := obs.NewRegistry()
	eng := core.Open(core.Options{
		Store:          fs,
		Branches:       heads,
		NodeCacheBytes: nodeCacheBytes,
		Metrics:        reg,
	})
	return &localDB{dir: dir, fs: fs, eng: eng, reg: reg, cas: cas}, nil
}

// close releases the engine the way forkbase.DB.Close does; the FileStore
// flushes its active segment on Close.
func (l *localDB) close() error {
	_ = l.eng.Close()
	store.NodeCacheOf(l.eng.Store()).Purge()
	return l.fs.Close()
}

// discard closes the DB and deletes its directory.
func (l *localDB) discard() {
	_ = l.close()
	os.RemoveAll(l.dir)
}

// ingest accumulates the timing of CSV imports.  In each, dataset.LoadCSV
// parses and dataset.Create (behind DB.CreateDataset) builds and commits
// the table as the next version of name on branch.
type ingest struct {
	bytes        int64
	parse, build time.Duration
}

func (in *ingest) load(eng *core.DB, name, branch string, csvText []byte) (*dataset.Dataset, error) {
	t0 := time.Now()
	schema, rows, err := dataset.LoadCSV(bytes.NewReader(csvText), "id")
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	ds, err := dataset.Create(eng, name, branch, schema, rows, nil)
	if err != nil {
		return nil, err
	}
	in.parse += t1.Sub(t0)
	in.build += time.Since(t1)
	in.bytes += int64(len(csvText))
	return ds, nil
}

func (in ingest) total() time.Duration { return in.parse + in.build }

// renderCSV renders rows with a header, as a vendor export would.
func renderCSV(schema dataset.Schema, rows []dataset.Row) []byte {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	_ = w.Write(schema.Columns) // writes to a bytes.Buffer cannot fail
	for _, r := range rows {
		_ = w.Write(r)
	}
	w.Flush()
	return buf.Bytes()
}

// encodeRow is the dataset row encoding (uvarint cell count, then each
// cell uvarint-length-prefixed).  The oracle compares the bytes Index.Get
// returns against it, so a read that returns another row, another version
// of the row, or damaged bytes fails.
func encodeRow(r dataset.Row) []byte {
	out := binary.AppendUvarint(nil, uint64(len(r)))
	for _, c := range r {
		out = binary.AppendUvarint(out, uint64(len(c)))
		out = append(out, c...)
	}
	return out
}

func rowKey(i int) string { return fmt.Sprintf("id-%08d", i) }
