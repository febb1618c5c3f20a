package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyondTail(t *testing.T) {
	mk := func(n int) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = time.Duration(n - i) // reverse order: percentile sorts
		}
		return s
	}
	if _, ok := percentile(mk(999), 0.99); ok {
		t.Fatal("p99 of 999 samples reported; only 9 lie beyond it")
	}
	v, ok := percentile(mk(1000), 0.99)
	if !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if v, ok := percentile(mk(3), 0.5); !ok || v != 2 {
		t.Fatalf("p50 of 1..3 = %v, %v; want 2, true", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("p50 of no samples reported")
	}
}

func TestRatioDerivations(t *testing.T) {
	if ratio(3, 0) != 0 || ratio(3, 4) != 0.75 {
		t.Fatal("ratio")
	}
	if median([]float64{3, 1, 2}) != 2 || median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("median")
	}
	d := counters{
		"store.get": 3200, "store.get.sampled": 100, "store.get.sampled_ns": 500_000, // 5µs sampled mean
		"store.has": 400, "store.read_bytes": 8000, "store.write_bytes": 6000,
		"server.requests": 50, "server.ns": 40_000, "server.CAS": 10, "server.CAS.ns": 30_000,
		"cache_hits": 30, "cache_misses": 10, "cache_evictions": 20,
		"go.alloc_bytes": 1000, "go.gc_pause_ns": 2e6, "store.unique_chunks": 100,
	}
	if got := d.busyUS("get"); got != 16_000 { // 5µs × 3,200 exact ops
		t.Fatalf("busy = %v µs, want sampled mean × exact count = 16000", got)
	}
	rec := newRecorder(true)
	rec.lat[opRead] = make([]time.Duration, 80)
	rec.lat[opCommit] = make([]time.Duration, 20)
	rec.spans["core.get"] = spanStat{n: 80, total: 80 * 100 * time.Microsecond}
	rec.spans["core.commit"] = spanStat{n: 20, total: 20 * 1000 * time.Microsecond}
	rec.userBytes = 600
	rec.tries[opDiff], rec.diffTouched, rec.diffPruned = 2, 30, 10
	o := &outcome{
		untraced: phase{rec: rec, elapsed: time.Second},
		traced:   &phase{rec: rec, elapsed: 2 * time.Second, delta: d, cas: spanStat{n: 4, total: 40 * time.Microsecond}},
		ing:      ingest{bytes: 2e6, parse: 10 * time.Millisecond, build: 30 * time.Millisecond},
	}
	want := map[string]float64{
		"core.get_us": 100, "core.commit_us": 1000, "core.cas_us": 10,
		"pos.edit.chunks_emitted": 20, "pos.edit.useful_ratio": 0.25,
		"pos.diff.touched_chunks": 15, "pos.diff.pruned_refs": 5,
		"dataset.parse_ms_per_mb": 5, "ingest.build_ms_per_mb": 15,
		"nodecache.hit_ratio": 0.75, "nodecache.evictions_per_op": 0.2,
		"store.gets_per_op": 32, "store.get_us": 5,
		"store.read_bytes_per_commit": 400, "store.write_bytes_per_commit": 300, "store.write_amp": 10,
		"server.requests_per_op": 0.5, "server.CAS_us": 3,
		// (80×100 + 20×1000 µs of client time − 40 µs at the server) / 50 requests
		"wire.overhead_us":      (28_000.0 - 40) / 50,
		"go.alloc_bytes_per_op": 10, "go.gc_pause_ms_per_s": 1,
	}
	got := map[string]float64{}
	for _, m := range perLayer(o) {
		got[m.name] = m.value
	}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9*math.Max(1, math.Abs(w)) {
			t.Errorf("%s = %v, want %v", name, got[name], w)
		}
	}
}

func TestWindowedRateIgnoresAStall(t *testing.T) {
	r := newRecorder(false)
	// 100 ops per 100ms window for 1s, except one window in which the
	// host stalled and nothing completed.
	for w := 0; w < 10; w++ {
		if w == 3 {
			continue
		}
		for k := 0; k < 100; k++ {
			r.at[opRead] = append(r.at[opRead], time.Duration(w)*100*time.Millisecond+time.Duration(k)*time.Millisecond)
		}
	}
	if got := median(windowRates(r, time.Second, 10)); got != 1000 {
		t.Fatalf("windowed rate %v, want 1000 ops/s", got)
	}
}

// tiny is a configuration small enough for a unit test.
func tiny(t *testing.T) *config {
	cfg := defaultConfig()
	cfg.clients, cfg.setupReps, cfg.seconds, cfg.trace = 2, 2, 0.4, true
	cfg.collabRows, cfg.mergeEvery = 3000, 5
	cfg.archiveRows, cfg.archiveVersions, cfg.archiveDiffs = 300, 4, 4
	cfg.kvKeys = 40
	cfg.seed = 5
	cfg.workDir = t.TempDir()
	return &cfg
}

func TestTinyRunsPass(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := tiny(t)
			res := run(&w, cfg)
			if !res.json.Correct {
				t.Fatalf("run failed:\n%s", strings.Join(res.report, "\n"))
			}
			if res.json.Attempted == 0 || res.json.Failed != 0 {
				t.Fatalf("attempted %d, failed %d", res.json.Attempted, res.json.Failed)
			}
			checkNames(t, res.json.Metrics, declared(t, "per_layer"))
			report := strings.Join(res.report, "\n")
			for _, want := range []string{"nproc=", "GOMAXPROCS=", "flush=SyncNone", "registry reconciled"} {
				if !strings.Contains(report, want) {
					t.Errorf("report lacks %q:\n%s", want, report)
				}
			}
			if w.name != "archive-scan" && !strings.Contains(report, "reopen (flush policy SyncNone)") {
				t.Errorf("report lacks the reopen check:\n%s", report)
			}
		})
	}
}

// declared reads the metric names and units BENCHMARK.json lists under key.
func declared(t *testing.T, key string) map[string]string {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type nameUnit struct{ Name, Unit string }
	var spec struct {
		EndToEnd []nameUnit `json:"end_to_end"`
		PerLayer []nameUnit `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	list := spec.PerLayer
	if key == "end_to_end" {
		list = spec.EndToEnd
	}
	out := map[string]string{}
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out
}

// checkNames checks that a result line holds exactly the declared metrics,
// each in its declared unit.
func checkNames(t *testing.T, got map[string]metricValue, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		if m, ok := got[name]; !ok || m.Unit != unit {
			t.Errorf("metric %s: got %+v, want unit %s", name, m, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s is not declared", name)
		}
	}
}

func TestUntracedRunReportsEveryEndToEndMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := tiny(t)
			cfg.trace = false
			cfg.collabReads = 40 // enough reads for every gated percentile
			res := run(&w, cfg)
			if !res.json.Correct {
				t.Fatalf("run failed:\n%s", strings.Join(res.report, "\n"))
			}
			checkNames(t, res.json.Metrics, declared(t, "end_to_end"))
		})
	}
}

func TestCorruptedExpectationFailsOracle(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := tiny(t)
			cfg.trace, cfg.corrupt = false, true
			if res := run(&w, cfg); res.json.Correct {
				t.Fatalf("run with a corrupted expected value passed:\n%s", strings.Join(res.report, "\n"))
			}
		})
	}
}
