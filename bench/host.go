package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// calibSink keeps the calibration loop from being optimized away.
var calibSink uint64

type calibNode struct {
	next *calibNode
	v    [6]uint64
}

// refCalibMS is the reference host's calibration time: end-to-end
// timings and rates are reported as they would read on a host where one
// calibration slice takes this long.
const refCalibMS = 1.0

// hostClock measures how fast the host runs this process's kind of work
// while a workload runs. Before each cell or job it forces a collection,
// so every measurement starts from the same heap state, and then times
// a fixed pure-Go kernel that allocates, walks and discards a linked
// list: the memory behaviour the interpreters share. The kernel is the
// benchmark's own code, so a change to the program does not move it,
// while a host whose memory system is shared with busy neighbours slows
// it as much as the workload (README.md, "Contended hosts").
type hostClock struct {
	total time.Duration
	n     int
}

func (c *hostClock) sample() {
	runtime.GC()
	start := time.Now()
	var head *calibNode
	for i := 0; i < 20_000; i++ {
		head = &calibNode{next: head, v: [6]uint64{uint64(i)}}
	}
	for n := head; n != nil; n = n.next {
		calibSink += n.v[0]
	}
	c.total += time.Since(start)
	c.n++
}

// ms is the mean calibration time of the run.
func (c *hostClock) ms() float64 {
	if c.n == 0 {
		return refCalibMS
	}
	return ms(c.total) / float64(c.n)
}

// slowdown is how much slower than the reference host the run's host
// was: raw times are divided by it and raw rates multiplied.
func (c *hostClock) slowdown() float64 { return c.ms() / refCalibMS }

// gcCycles counts the collections the runtime started on its own.
func gcCycles(m *runtime.MemStats) uint32 { return m.NumGC - m.NumForcedGC }

// cpuTimes reads the aggregate steal and total jiffies from /proc/stat
// (zeros where the file is unavailable).
func cpuTimes() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		// guest and guest_nice (fields 9 and 10) are already part of
		// user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealWindow measures the share of CPU time the hypervisor stole
// between its creation and pct.
type stealWindow struct{ steal, total uint64 }

func startSteal() stealWindow {
	s, t := cpuTimes()
	return stealWindow{s, t}
}

func (w stealWindow) pct() float64 {
	s, t := cpuTimes()
	if t <= w.total {
		return 0
	}
	return 100 * float64(s-w.steal) / float64(t-w.total)
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
