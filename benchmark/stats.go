package main

import (
	"sort"
	"syscall"
	"time"
)

// tailLadder lists the percentiles the report may name, in tenths of a
// percent, highest first.
var tailLadder = []int{999, 990, 900, 500}

// rankOf is the 1-based nearest-rank position of the p-th (tenths of a
// percent) percentile among n sorted samples.
func rankOf(p, n int) int {
	k := (p*n + 999) / 1000
	if k < 1 {
		k = 1
	}
	return k
}

// tailPercentile returns the highest percentile of tailLadder (in tenths
// of a percent) that leaves at least ten of n samples beyond it, or 0 when
// n is too small for any of them.
func tailPercentile(n int) int {
	for _, p := range tailLadder {
		if n-rankOf(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile (tenths of a
// percent) of xs, which it sorts in place. It returns 0 for no samples.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rankOf(p, len(xs))-1]
}

// median returns the middle of xs (the mean of the two middle values for
// an even count), sorting xs in place. It returns 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func tv(t syscall.Timeval) time.Duration {
	return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
}

// rusageThread is Linux's RUSAGE_THREAD, which the syscall package does
// not name.
const rusageThread = 1

func rusage(who int) syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		panic("getrusage: " + err.Error()) // only EINVAL/EFAULT, i.e. a bug here
	}
	return ru
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	ru := rusage(syscall.RUSAGE_SELF)
	return tv(ru.Utime) + tv(ru.Stime)
}

// threadCPU is the calling OS thread's user+system CPU time so far; the
// caller must hold runtime.LockOSThread for the readings to belong to it.
func threadCPU() time.Duration {
	ru := rusage(rusageThread)
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's maximum resident set size in MB (Linux
// reports ru_maxrss in KB).
func peakRSSMB() float64 {
	return float64(rusage(syscall.RUSAGE_SELF).Maxrss) / 1024
}
