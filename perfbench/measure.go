package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank q-quantile of samples (sorted in
// place) and whether it is reportable: a percentile above the median is
// reported only when at least minTail samples lie beyond it, so a p99 needs
// at least 1,000 samples.  The median needs one sample.
func percentile(samples []time.Duration, q float64) (time.Duration, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := int(math.Ceil(q * float64(n))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if q > 0.5 && n-rank < minTail {
		return 0, false
	}
	return samples[rank-1], true
}

// minTail is how many samples must lie beyond a reported tail percentile.
const minTail = 10

// rateWindows is how many equal windows an untraced run's ops_per_s is
// measured over.
const rateWindows = 10

// windowRates splits the phase into n equal windows and returns each
// window's completed-op rate.  ops_per_s is their median, so a stall of
// another tenant on the host that lasts less than half the phase does not
// move it.
func windowRates(r *recorder, elapsed time.Duration, n int) []float64 {
	win := elapsed / time.Duration(n)
	if win <= 0 {
		return nil
	}
	rates := make([]float64, n)
	for _, at := range r.at {
		for _, t := range at {
			i := int(t / win)
			if i >= n {
				i = n - 1
			}
			rates[i]++
		}
	}
	for i := range rates {
		rates[i] /= win.Seconds()
	}
	return rates
}

// ratio is num/den, or 0 when nothing was attempted: per-layer ratios of a
// layer the workload never reaches read 0, not NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// median of xs (sorted in place); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB is the process's peak resident set so far, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// host is the context every report records: numbers from a 1-CPU and a
// 2-CPU host are not comparable, so the report says which it was.
type host struct {
	NumCPU     int
	GOMAXPROCS int
	GoVersion  string
	CPUModel   string
}

func hostContext() host {
	return host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
