package main

import (
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"forkbase"
	"forkbase/internal/core"
	"forkbase/internal/hash"
	"forkbase/internal/obs"
	"forkbase/internal/server"
	"forkbase/internal/store"
)

// kvNode is a server.Server over a FileStore and a FileBranchTable, wired
// as cmd/forkbased wires one (one change feed shared by the TCP service,
// connection limits), with its clients: one forkbase.Open(Remote(addr))
// DB per client, each over its own connection.  The local engine that
// forkbased also opens serves REST and scrub, not the TCP request path,
// so it is left out.
type kvNode struct {
	dir     string
	fs      *store.FileStore
	srv     *server.Server
	srvReg  *obs.Registry
	cas     *timedBranches
	clients []*forkbase.DB
	regs    []*obs.Registry
}

func startKVNode(dir string, clients int, trace bool) (*kvNode, error) {
	fs, err := store.OpenFileStore(dir)
	if err != nil {
		return nil, err
	}
	bt, err := core.OpenFileBranchTable(dir)
	if err != nil {
		fs.Close()
		return nil, err
	}
	n := &kvNode{dir: dir, fs: fs, srvReg: obs.NewRegistry()}
	var heads core.BranchTable
	heads, n.cas = maybeTimed(bt, trace)
	feed := core.NewFeed(0)
	fheads := core.WithFeed(heads, feed)
	n.srv = server.New(fs, fheads, slog.New(slog.NewTextHandler(io.Discard, nil)))
	n.srv.SetMetrics(n.srvReg)
	n.srv.AttachFeed(feed)
	n.srv.SetLimits(server.Limits{MaxConns: 1024, ReadTimeout: 2 * time.Minute})
	addr, err := n.srv.Listen("127.0.0.1:0")
	if err != nil {
		n.close()
		return nil, err
	}
	for i := 0; i < clients; i++ {
		reg := obs.NewRegistry()
		db, err := forkbase.Open(forkbase.Remote(addr), forkbase.WithNodeCache(nodeCacheBytes), forkbase.WithMetrics(reg))
		if err != nil {
			n.close()
			return nil, err
		}
		n.clients, n.regs = append(n.clients, db), append(n.regs, reg)
	}
	return n, nil
}

// close stops the clients, then the server (waiting for its connection
// goroutines), then closes the store, which flushes its active segment.
func (n *kvNode) close() error {
	for _, c := range n.clients {
		_ = c.Close()
	}
	_ = n.srv.Close()
	return n.fs.Close()
}

// kvModel is the oracle: every key's acknowledged value and head.  Client
// i owns the keys whose index is congruent to i, so no two goroutines
// write one element.
type kvModel struct {
	keys  []string
	vals  []string
	heads []hash.Hash
}

func (m *kvModel) owned(i, clients int) []int {
	var out []int
	for k := i; k < len(m.keys); k += clients {
		out = append(out, k)
	}
	return out
}

// runKV is the kv-remote workload.
func runKV(cfg *config) (*outcome, error) {
	o := &outcome{}
	m := &kvModel{keys: make([]string, cfg.kvKeys), vals: make([]string, cfg.kvKeys), heads: make([]hash.Hash, cfg.kvKeys)}
	rng := rand.New(rand.NewSource(cfg.seed))
	initial := make([]string, cfg.kvKeys)
	for k := range m.keys {
		m.keys[k] = fmt.Sprintf("obj-%05d", k)
		initial[k] = fmt.Sprintf("%s initial %016x", m.keys[k], rng.Uint64())
	}

	var node *kvNode
	for rep := 0; rep < cfg.setupReps; rep++ {
		if node != nil {
			node.close()
			os.RemoveAll(node.dir)
		}
		runtime.GC() // every setup starts from the same heap
		start := time.Now()
		var err error
		if node, err = startKVNode(filepath.Join(cfg.workDir, fmt.Sprintf("kv-%d", rep)), cfg.clients, cfg.trace); err != nil {
			return nil, err
		}
		// Each client loads its own keys, one PutString each.
		errs := make([]error, cfg.clients)
		var wg sync.WaitGroup
		for i := 0; i < cfg.clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for _, k := range m.owned(i, cfg.clients) {
					v, err := node.clients[i].PutString(m.keys[k], core.DefaultBranch, initial[k], nil)
					if err != nil {
						errs[i] = err
						return
					}
					m.vals[k], m.heads[k] = initial[k], v.UID
				}
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				node.close()
				return nil, err
			}
		}
		o.setup = append(o.setup, time.Since(start))
	}
	defer os.RemoveAll(node.dir)
	if cfg.corrupt {
		m.vals[0] = "corrupted"
	}

	rngs := make([]*rand.Rand, cfg.clients)
	owned := make([][]int, cfg.clients)
	seqs := make([]int, cfg.clients)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(cfg.seed*7919 + int64(i)))
		owned[i] = m.owned(i, cfg.clients)
	}
	body := func(i int, r *recorder, _ time.Time) error {
		rng, db := rngs[i], node.clients[i]
		k := owned[i][rng.Intn(len(owned[i]))]
		key := m.keys[k]
		if rng.Intn(5) == 0 { // 20% PutString, 80% Get
			seqs[i]++
			val := fmt.Sprintf("%s v%d.%d %016x", key, i, seqs[i], rng.Uint64())
			var ver forkbase.Version
			err := r.op(opCommit, func() error {
				return r.span("core.commit", func() (err error) {
					ver, err = db.PutString(key, core.DefaultBranch, val, nil)
					return err
				})
			})
			if err == nil {
				m.vals[k], m.heads[k] = val, ver.UID
				r.userBytes += int64(len(key) + len(val))
			}
			return nil
		}
		var got string
		err := r.op(opRead, func() error {
			var ver forkbase.Version
			if err := r.span("core.get", func() (err error) { ver, err = db.Get(key, core.DefaultBranch); return }); err != nil {
				return err
			}
			var err error
			got, err = ver.Value.AsString()
			return err
		})
		if err == nil && got != m.vals[k] {
			return fmt.Errorf("kv-remote: %s reads %q, model has %q", key, got, m.vals[k])
		}
		return nil
	}
	read := func() counters {
		return readCounters(node.regs, store.KindOf(node.clients[0].Engine().RawStore()), node.srvReg, node.fs)
	}
	if err := runPhases(cfg, o, read, node.cas, body); err != nil {
		node.close()
		return o, err
	}
	o.physical, o.logical = o.untraced.delta["store.physical_bytes"], float64(o.untraced.rec.userBytes)
	if t := o.traced; t != nil {
		// Each Get and PutString is one engine op on its client; each
		// commit publishes with one server CAS; every client RPC attempt
		// is one server request.
		d, rec := t.delta, t.rec
		var err error
		switch {
		case d["engine.get"] != float64(rec.tries[opRead]):
			err = fmt.Errorf("registry: engine get ops %v, benchmark sent %d", d["engine.get"], rec.tries[opRead])
		case d["engine.put"] != float64(rec.tries[opCommit]):
			err = fmt.Errorf("registry: engine put ops %v, benchmark sent %d", d["engine.put"], rec.tries[opCommit])
		case d["server.CAS"] != float64(rec.tries[opCommit]):
			err = fmt.Errorf("registry: server CAS requests %v, benchmark committed %d", d["server.CAS"], rec.tries[opCommit])
		case d["server.requests"] != d["retry_attempts"]:
			err = fmt.Errorf("registry: server saw %v requests, clients made %v attempts", d["server.requests"], d["retry_attempts"])
		}
		if err != nil {
			node.close()
			return o, err
		}
		o.notes = append(o.notes, fmt.Sprintf("registry reconciled: engine get=%v put=%v, server CAS=%v, server requests=%v = client attempts",
			d["engine.get"], d["engine.put"], d["server.CAS"], d["server.requests"]))
	}
	note, err := kvReopen(node, m)
	o.notes = append(o.notes, note)
	return o, err
}

// kvReopen stops the node, restarts it from the same directory, and checks
// that every acknowledged head and value survived.
func kvReopen(node *kvNode, m *kvModel) (string, error) {
	if err := node.close(); err != nil {
		return "", err
	}
	re, err := startKVNode(node.dir, 1, false)
	if err != nil {
		return "", err
	}
	defer re.close()
	db := re.clients[0]
	for k, key := range m.keys {
		head, err := db.Head(key, core.DefaultBranch)
		if err != nil {
			return "", err
		}
		if head != m.heads[k] {
			return "", fmt.Errorf("kv-remote reopen: %s head %s, acknowledged %s", key, head.Short(), m.heads[k].Short())
		}
		v, err := db.Get(key, core.DefaultBranch)
		if err != nil {
			return "", err
		}
		if s, err := v.Value.AsString(); err != nil || s != m.vals[k] {
			return "", fmt.Errorf("kv-remote reopen: %s reads %q (%v), acknowledged %q", key, s, err, m.vals[k])
		}
	}
	return fmt.Sprintf("reopen (flush policy %s): all %d acknowledged heads and values identical", flushPolicy, len(m.keys)), nil
}
