package main

import (
	"runtime"
	"time"
)

// config sizes one run.  The command line sets only the seed, the timed
// length and the trace switch; sizes are fixed so every run of a workload
// does the same work (tests shrink them).
type config struct {
	seed      int64
	seconds   float64
	trace     bool
	clients   int
	setupReps int
	workDir   string

	collabRows, collabEdits, collabReads, mergeEvery int
	archiveRows, archiveVersions, archiveDiffs       int
	kvKeys                                           int

	// corrupt falsifies one expected value of the model after setup; the
	// benchmark's tests use it to show that the oracle fails the run.
	corrupt bool
}

// phase is the timed closed-loop load of one kind (untraced or traced),
// possibly gathered over several slices.
type phase struct {
	rec     *recorder
	elapsed time.Duration
	rates   []float64 // completed ops per second of each window or slice
	delta   counters  // registry, store and runtime counters moved in the phase
	cas     spanStat  // branch-table CAS time (traced runs only)
}

// add folds slice p into ph.
func (ph *phase) add(p phase) {
	if ph.rec == nil {
		ph.rec, ph.delta = newRecorder(p.rec.spans != nil), counters{}
	}
	ph.rec.merge(p.rec)
	ph.elapsed += p.elapsed
	ph.rates = append(ph.rates, p.rates...)
	for k, v := range p.delta {
		ph.delta[k] += v
	}
	ph.cas.n += p.cas.n
	ph.cas.total += p.cas.total
}

// outcome is everything a workload measured, handed to the reporter.
type outcome struct {
	setup    []time.Duration // one per setup repetition
	ing      ingest          // the last setup's CSV import (zero when none)
	untraced phase
	traced   *phase // traced runs only
	// Storage cost of the workload's writes: physical store bytes added
	// and the logical bytes the user committed.  For workloads that write
	// in the timed phase it is measured over the untraced phase, so it
	// does not depend on how many commits fit in the run.
	physical, logical float64
	notes             []string // oracle, reconciliation and reopen results
}

// measurePhase runs the clients for seconds, takes counter readings around
// them, and measures the op rate over the given number of equal windows.
func measurePhase(cfg *config, seconds float64, windows int, trace bool, read func() counters, cas *timedBranches,
	body clientBody) (phase, error) {
	cas.setOn(trace)
	defer cas.setOn(false)
	before, casBefore := read(), cas.stat()
	rec, elapsed, err := runClients(cfg.clients, seconds, trace, body)
	after, casAfter := read(), cas.stat()
	return phase{
		rec:     rec,
		elapsed: elapsed,
		rates:   windowRates(rec, elapsed, windows),
		delta:   after.minus(before),
		cas:     spanStat{n: casAfter.n - casBefore.n, total: casAfter.total - casBefore.total},
	}, err
}

// traceSlices is how many untraced and as many traced slices a traced run
// alternates, so that host drift and the growth of the workload's state
// during the run hit both sides alike and the difference between them is
// the tracing overhead.
const traceSlices = 10

// runPhases runs the timed load: one untraced phase of cfg.seconds, or in
// traced runs cfg.seconds of untraced and cfg.seconds of traced load in
// alternating slices (untraced first in even slices, traced first in odd
// ones).
func runPhases(cfg *config, o *outcome, read func() counters, cas *timedBranches, body clientBody) error {
	runtime.GC() // every run's timed load starts from a collected heap
	if !cfg.trace {
		var err error
		o.untraced, err = measurePhase(cfg, cfg.seconds, rateWindows, false, read, cas, body)
		return err
	}
	o.traced = &phase{}
	for k := 0; k < traceSlices; k++ {
		for _, traced := range []bool{k%2 == 1, k%2 == 0} {
			p, err := measurePhase(cfg, cfg.seconds/traceSlices, 1, traced, read, cas, body)
			if traced {
				o.traced.add(p)
			} else {
				o.untraced.add(p)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}
