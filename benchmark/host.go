package main

import (
	"runtime"
	"syscall"
	"time"
)

// l2Bytes is the per-core L2 of the host the sizes were chosen on.
// Wall-gated problems stay at most a third of it or at least three
// times it (see README, "Sizes").
const l2Bytes = 4 << 20

// triadWords sizes each of the three triad arrays at 64 MiB, sixteen
// times L2, so the triad streams from memory.
const triadWords = 64 << 20 / 8

// triad holds the stream-triad arrays. A caller drops it before the
// measured rounds so the 192 MiB never count as retained heap.
type triad struct{ a, b, c []float64 }

// newTriad allocates and touches all three arrays, so no pass pays
// page faults.
func newTriad() *triad {
	t := &triad{make([]float64, triadWords), make([]float64, triadWords), make([]float64, triadWords)}
	for i := range t.a {
		t.a[i], t.b[i], t.c[i] = 0, 1, 2
	}
	return t
}

// gbs runs a[i] = b[i] + s*c[i] once over the arrays and returns the
// bandwidth in GB/s, counting 32 bytes per element: the two reads, the
// write, and the write-allocate read of a that a plain store costs.
// The streaming kernels held against it count their bytes the same way.
func (t *triad) gbs() float64 {
	a, b, c := t.a, t.b, t.c
	t0 := time.Now()
	for i := range a {
		a[i] = b[i] + 3*c[i]
	}
	return 32 * float64(len(a)) / time.Since(t0).Seconds() / 1e9
}

// median3 is the median of three passes.
func (t *triad) median3() float64 {
	return percentile([]float64{t.gbs(), t.gbs(), t.gbs()}, 50)
}

// cpuSeconds is the process's user + system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// window brackets one measured region: wall time, process CPU and heap
// allocations. The MemStats reads stop the world, so they sit outside
// the timed interval.
type window struct {
	t0      time.Time
	cpu0    float64
	mallocs uint64
}

func openWindow() window {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return window{cpu0: cpuSeconds(), mallocs: ms.Mallocs, t0: time.Now()}
}

func (w window) close() (wall, cpu float64, mallocs uint64) {
	wall = time.Since(w.t0).Seconds()
	cpu = cpuSeconds() - w.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return wall, cpu, ms.Mallocs - w.mallocs
}

// retainedHeapMB is the live heap after a full collection.
func retainedHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func gcCycles() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC
}
