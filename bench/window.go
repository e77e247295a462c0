package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// windowResult is what one timed window measured and verified.
type windowResult struct {
	// start is when the window opened; stop is when the last operation
	// started before the deadline completed.
	start, stop time.Time
	// lats are the latencies (ms) of the successful operations; cells
	// counts the cells they carried.
	lats      []float64
	cells     int
	attempted int
	failed    int
	verified  int
	errs      []string
	bodies    map[int][]byte

	cpu0, cpu         time.Duration
	gc0, tot0, gcFrac float64
	alloc0, alloc     uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// gcCPU reads the runtime's estimate of GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func (r *windowResult) begin() {
	r.alloc0 = totalAlloc()
	r.gc0, r.tot0 = gcCPU()
	r.cpu0 = cpuTime()
	r.start = time.Now()
}

func (r *windowResult) end() {
	r.stop = time.Now()
	r.cpu = cpuTime() - r.cpu0
	gc, tot := gcCPU()
	r.gcFrac = ratio(gc-r.gc0, tot-r.tot0)
	r.alloc = totalAlloc() - r.alloc0
}

// done records a successful operation carrying n cells.
func (r *windowResult) done(t0, t1 time.Time, n int) {
	r.cells += n
	r.lats = append(r.lats, ms(t1.Sub(t0)))
}

// rate is cells per second over the window. It counts the operations still
// in flight at the deadline, and the time they took, so a window of a few
// slow cells is not rounded to whole cells.
func (r *windowResult) rate() float64 {
	return ratio(float64(r.cells), r.stop.Sub(r.start).Seconds())
}

// fail counts a failed operation or check, keeping the first messages.
func (r *windowResult) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}
