package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// Operation classes a client sends.  Each closed-loop client sends its
// next request only after the previous one returned.
type opClass int

const (
	opRead   opClass = iota // one row or object read at a head or version
	opCommit                // one acknowledged write creating a version
	opDiff                  // one diff between two branches or versions
	opMerge                 // one three-way merge
	numOps
)

// spanStat aggregates one named span: the benchmark times the public call
// into a layer (DB.Get, IndexOf, Index.Get, EditMap, ...) from outside it.
type spanStat struct {
	n     int64
	total time.Duration
}

func (s spanStat) meanUS() float64 { return ratio(us(s.total), float64(s.n)) }

// recorder holds one client's samples.  Each client owns its recorder, so
// recording takes no lock; recorders are merged after the clients stop.
type recorder struct {
	lat       [numOps][]time.Duration
	at        [numOps][]time.Duration // completion time of each sample since t0
	t0        time.Time
	tries     [numOps]int64       // attempts per class, failed ones included
	spans     map[string]spanStat // nil: tracing off
	attempted int64
	failed    int64
	userBytes int64 // logical bytes committed by this client
	// DiffStats summed over this client's diffs: chunks the diffs loaded
	// and subtrees they skipped because their hashes matched.
	diffTouched, diffPruned int
}

func newRecorder(trace bool) *recorder {
	r := &recorder{}
	if trace {
		r.spans = make(map[string]spanStat)
	}
	return r
}

// span times f under name when tracing is on; otherwise it only calls f.
func (r *recorder) span(name string, f func() error) error {
	if r.spans == nil {
		return f()
	}
	start := time.Now()
	err := f()
	s := r.spans[name]
	s.n++
	s.total += time.Since(start)
	r.spans[name] = s
	return err
}

// op runs one end-to-end operation of class c and records its latency.
// An error counts as a failed op; its latency is not recorded.
func (r *recorder) op(c opClass, f func() error) error {
	r.attempted++
	r.tries[c]++
	start := time.Now()
	err := f()
	if err != nil {
		r.failed++
		return err
	}
	end := time.Now()
	r.lat[c] = append(r.lat[c], end.Sub(start))
	r.at[c] = append(r.at[c], end.Sub(r.t0))
	return nil
}

func (r *recorder) completed() int64 {
	var n int64
	for _, l := range r.lat {
		n += int64(len(l))
	}
	return n
}

// merge folds o into r.
func (r *recorder) merge(o *recorder) {
	for c := range r.lat {
		r.lat[c] = append(r.lat[c], o.lat[c]...)
		r.at[c] = append(r.at[c], o.at[c]...)
		r.tries[c] += o.tries[c]
	}
	if o.spans != nil {
		if r.spans == nil {
			r.spans = make(map[string]spanStat)
		}
		for k, v := range o.spans {
			s := r.spans[k]
			s.n += v.n
			s.total += v.total
			r.spans[k] = s
		}
	}
	r.attempted += o.attempted
	r.failed += o.failed
	r.userBytes += o.userBytes
	r.diffTouched += o.diffTouched
	r.diffPruned += o.diffPruned
}

// clientBody is one closed-loop step of client i: it sends the client's
// next requests, each after the previous one returned, and returns an
// error only for a wrong answer (op errors are counted, not returned).
type clientBody func(i int, r *recorder, deadline time.Time) error

// runClients runs n closed-loop clients until the deadline and returns the
// merged recorder and the elapsed wall time.  The first wrong answer any
// client reports stops every client.
func runClients(n int, seconds float64, trace bool, body clientBody) (*recorder, time.Duration, error) {
	recs := make([]*recorder, n)
	errs := make([]error, n)
	var stop atomic.Bool
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		recs[i] = newRecorder(trace)
		recs[i].t0 = start
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for !stop.Load() && time.Now().Before(deadline) {
				if err := body(i, recs[i], deadline); err != nil {
					errs[i] = err
					stop.Store(true)
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	all := newRecorder(trace)
	for _, r := range recs {
		all.merge(r)
	}
	for _, err := range errs {
		if err != nil {
			return all, elapsed, err
		}
	}
	return all, elapsed, nil
}
