package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks, the method of numpy's default and
// of Python's statistics.quantiles(method="inclusive"). xs need not be
// sorted; it is not modified. An empty input gives NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuTime is the process's user+system CPU time so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapCounters is a snapshot of the cumulative allocation counters.
type heapCounters struct {
	bytes, objects uint64
}

// allocSnapshot reads runtime.MemStats.TotalAlloc and Mallocs. It stops
// the world briefly, so callers take it around whole operations, never
// around single small calls.
func allocSnapshot() heapCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heapCounters{bytes: ms.TotalAlloc, objects: ms.Mallocs}
}

func (h heapCounters) sub(o heapCounters) heapCounters {
	return heapCounters{bytes: h.bytes - o.bytes, objects: h.objects - o.objects}
}

var gcSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

// gcCPU is the runtime's estimate of CPU time spent in the garbage
// collector so far.
func gcCPU() time.Duration {
	metrics.Read(gcSample)
	if gcSample[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return time.Duration(gcSample[0].Value.Float64() * float64(time.Second))
}

// usage is one measured interval: wall, CPU, allocations and GC CPU.
type usage struct {
	wall, cpu, gc time.Duration
	alloc         heapCounters
}

func (u *usage) add(o usage) {
	u.wall += o.wall
	u.cpu += o.cpu
	u.gc += o.gc
	u.alloc.bytes += o.alloc.bytes
	u.alloc.objects += o.alloc.objects
}

// measure runs f and reports what it cost the process.
func measure(f func()) usage {
	a0, c0, g0 := allocSnapshot(), cpuTime(), gcCPU()
	t0 := time.Now()
	f()
	wall := time.Since(t0)
	c1, g1, a1 := cpuTime(), gcCPU(), allocSnapshot()
	return usage{wall: wall, cpu: c1 - c0, gc: g1 - g0, alloc: a1.sub(a0)}
}

// rssBytes is the process's current resident set size, from the second
// field of /proc/self/statm. It returns 0 where that file is missing.
func rssBytes() uint64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := bytes.Fields(data)
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(string(fields[1]), 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}

// rssSampler tracks the highest resident set seen while armed. A
// goroutine samples every interval; arm and disarm bracket the timed
// sections so set-up's peak is never counted.
type rssSampler struct {
	armed atomic.Bool
	peak  atomic.Uint64
	stop  chan struct{}
	wg    sync.WaitGroup
}

func newRSSSampler(interval time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if s.armed.Load() {
					s.note()
				}
			}
		}
	}()
	return s
}

func (s *rssSampler) note() {
	v := rssBytes()
	for {
		old := s.peak.Load()
		if v <= old || s.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

func (s *rssSampler) arm() { s.note(); s.armed.Store(true) }

func (s *rssSampler) disarm() { s.armed.Store(false); s.note() }

// close stops the sampling goroutine and waits for it to exit.
func (s *rssSampler) close() {
	close(s.stop)
	s.wg.Wait()
}

// hostCPU is a snapshot of the machine-wide CPU time counters of
// /proc/stat, in clock ticks: all of them, and the share the hypervisor
// gave to other guests (steal). ok is false where /proc/stat is missing.
type hostCPU struct {
	total, steal uint64
	ok           bool
}

func readHostCPU() hostCPU {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	return parseHostCPU(data)
}

// parseHostCPU reads the aggregate "cpu" line that begins /proc/stat.
func parseHostCPU(data []byte) hostCPU {
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(string(f), 10, 64)
		if err != nil {
			return hostCPU{}
		}
		// Guest time (fields 9 and 10) is already counted in user time.
		if i < 8 {
			h.total += v
		}
		if i == 7 {
			h.steal = v
		}
	}
	h.ok = true
	return h
}

// stealShare is the share of the machine's CPU time between two
// snapshots that the hypervisor gave to other guests, or NaN when
// unknown.
func stealShare(from, to hostCPU) float64 {
	if !from.ok || !to.ok || to.total <= from.total {
		return math.NaN()
	}
	return float64(to.steal-from.steal) / float64(to.total-from.total)
}
