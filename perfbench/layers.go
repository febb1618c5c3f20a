package main

import (
	"runtime"
	"sync/atomic"
	"time"

	"forkbase/internal/core"
	"forkbase/internal/hash"
	"forkbase/internal/obs"
	"forkbase/internal/store"
)

// timedBranches times every CompareAndSet of the branch table the
// benchmark hands to the engine or the server (core.cas_us).  It is
// installed only in traced runs, and times only while on: the untraced
// phase of a traced run skips the clock reads.
type timedBranches struct {
	core.BranchTable
	on    atomic.Bool
	n, ns atomic.Int64
}

func (t *timedBranches) CompareAndSet(key, branch string, old, new hash.Hash) (bool, error) {
	if !t.on.Load() {
		return t.BranchTable.CompareAndSet(key, branch, old, new)
	}
	start := time.Now()
	ok, err := t.BranchTable.CompareAndSet(key, branch, old, new)
	t.ns.Add(int64(time.Since(start)))
	t.n.Add(1)
	return ok, err
}

func (t *timedBranches) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

func (t *timedBranches) stat() spanStat {
	if t == nil {
		return spanStat{}
	}
	return spanStat{n: t.n.Load(), total: time.Duration(t.ns.Load())}
}

// maybeTimed wraps bt for CAS timing when tracing is on.
func maybeTimed(bt core.BranchTable, trace bool) (core.BranchTable, *timedBranches) {
	if !trace {
		return bt, nil
	}
	t := &timedBranches{BranchTable: bt}
	return t, t
}

// counters is a point-in-time reading of the obs counters the program
// already exports, summed over the private registries of one workload
// (one per DB instance, one for the server).  Phases are measured as the
// difference of two readings.
type counters map[string]float64

// Registry series the benchmark reads.  Store histograms are read per op;
// engine and store histograms time only 1 op in 32 (latSampleMask in
// internal/core and internal/store), so busy time is derived as the
// sampled mean times the exact op counter, never as the histogram sum.
var (
	engineOps = []string{"get", "put", "merge", "write_batch"}
	storeOps  = []string{"get", "put", "has", "get_batch", "put_batch", "has_batch"}
	serverOps = []string{"GetChunk", "Head", "CAS", "PutChunk", "PutChunks", "GetChunks", "HasChunk", "HasChunks"}
)

// readCounters reads engine/store/cache/verify series from the engine
// registries (kind is the store backend label), server series from srv
// (nil when there is no server), retry series from the process registry,
// the FileStore's distinct-chunk and physical-byte totals, and Go runtime
// allocation and GC-pause totals.
func readCounters(engRegs []*obs.Registry, kind string, srv *obs.Registry, fs *store.FileStore) counters {
	c := counters{}
	add := func(k string, v float64) { c[k] += v }
	st := fs.Stats()
	add("store.unique_chunks", float64(st.UniqueChunks))
	add("store.physical_bytes", float64(st.PhysicalBytes))
	for _, reg := range engRegs {
		for _, op := range engineOps {
			v, _ := reg.Value("forkbase_engine_ops_total", op)
			add("engine."+op, v)
		}
		add("engine.errors", reg.Sum("forkbase_engine_errors_total"))
		for _, op := range storeOps {
			v, _ := reg.Value("forkbase_store_ops_total", kind, op)
			add("store."+op, v)
			h := reg.HistogramVec("forkbase_store_op_seconds", "", "kind", "op").With(kind, op)
			add("store."+op+".sampled", float64(h.Count()))
			add("store."+op+".sampled_ns", float64(h.Sum()))
		}
		v, _ := reg.Value("forkbase_store_read_bytes_total", kind)
		add("store.read_bytes", v)
		v, _ = reg.Value("forkbase_store_write_bytes_total", kind)
		add("store.write_bytes", v)
		for _, s := range []string{"cache_hits", "cache_misses", "cache_evictions", "verify_cache_hits", "verify_cache_misses"} {
			v, _ := reg.Value("forkbase_" + s + "_total")
			add(s, v)
		}
	}
	if srv != nil {
		for _, op := range serverOps {
			v, _ := srv.Value("forkbase_server_requests_total", op)
			add("server."+op, v)
			h := srv.HistogramVec("forkbase_server_request_seconds", "", "op").With(op)
			add("server."+op+".ns", float64(h.Sum()))
		}
		add("server.requests", srv.Sum("forkbase_server_requests_total"))
		add("server.errors", srv.Sum("forkbase_server_errors_total"))
		add("server.ns", srvBusyNs(srv))
	}
	def := obs.Default()
	for _, s := range []string{"retry_attempts", "retry_retries"} {
		v, _ := def.Value("forkbase_" + s + "_total")
		add(s, v)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	add("go.alloc_bytes", float64(ms.TotalAlloc))
	add("go.gc_pause_ns", float64(ms.PauseTotalNs))
	return c
}

// srvBusyNs is the total server handling time over every opcode (the
// server times every request, so its histogram sums are exact).
func srvBusyNs(srv *obs.Registry) float64 {
	var ns float64
	for _, op := range serverOps {
		ns += float64(srv.HistogramVec("forkbase_server_request_seconds", "", "op").With(op).Sum())
	}
	return ns
}

func (c counters) minus(o counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - o[k]
	}
	return d
}

// busyUS derives a store op's total busy time in the phase: the sampled
// histogram mean times the exact op counter.  The histogram sum alone
// covers only the sampled ops (1 in 32 for point ops).
func (c counters) busyUS(op string) float64 {
	mean := ratio(c["store."+op+".sampled_ns"], c["store."+op+".sampled"])
	return mean * c["store."+op] / 1e3
}

// meanUS is a store op's sampled mean latency in µs.
func (c counters) meanUS(op string) float64 {
	return ratio(c["store."+op+".sampled_ns"], c["store."+op+".sampled"]) / 1e3
}
