package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"time"
)

// Host speed on a shared machine drifts by tens of percent for minutes
// at a time as neighbours contend for caches and memory, and the drift
// moves the single-threaded workloads together. Those workloads
// therefore interleave a fixed calibration kernel with the work they
// time and report every host time at a reference speed: a duration is
// multiplied by calibRef over the kernel's recent median time. The
// kernel is owned by the benchmark and allocation-free: a
// register-machine loop with a small map, run once over a 256 KiB array
// and once over a 4 MiB one. The small pass tracks how the interpreter
// slows, the large one how the VM and the timing models slow; a
// compute-only kernel does not track the drift at all. serve-http is not
// calibrated (its calibrator is nil): its load does not slow in step
// with the kernel, and the kernel could only run while the server idles.

// calibRef is the kernel's time at the reference speed, roughly its
// uncontended time on a 2.0 GHz Xeon.
const calibRef = 2 * time.Millisecond

// calibEvery is the sampling period between timed operations.
const calibEvery = 100 * time.Millisecond

// calibRecent is how many of the latest samples the current scale uses.
const calibRecent = 5

type calibrator struct {
	small, large []uint64
	m            map[uint64]uint64
	x            uint64
	sink         uint64

	last    time.Time
	samples []time.Duration
}

func newCalibrator() *calibrator {
	c := &calibrator{small: make([]uint64, 32<<10), large: make([]uint64, 512<<10),
		m: map[uint64]uint64{}, x: 88172645463325252}
	for i := uint64(0); i < 1024; i++ {
		c.m[i] = i
	}
	return c
}

// sample runs the kernel once and records its time.
func (c *calibrator) sample() {
	t := time.Now()
	c.pass(c.small)
	c.pass(c.large)
	c.samples = append(c.samples, time.Since(t))
	c.last = time.Now()
}

// pass runs the register machine over mem, whose length is a power of
// two.
func (c *calibrator) pass(mem []uint64) {
	mask := uint64(len(mem) - 1)
	var reg [16]uint64
	x, pc := c.x, uint64(0)
	for i := 0; i < 80_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		op := pc
		pc = (pc + 1 + x&1) & 7
		r := x & 15
		switch op {
		case 0:
			reg[r] += x
		case 1:
			reg[r] = mem[(x>>8)&mask]
		case 2:
			mem[(x>>12)&mask] = reg[r]
		case 3:
			if reg[r]&1 == 0 {
				reg[(r+1)&15] ^= reg[r] >> 3
			}
		case 4:
			c.m[x&1023] = reg[r]
		case 5:
			reg[r] += c.m[(x>>5)&1023]
		case 6:
			reg[r] *= 0x9E3779B97F4A7C15
		default:
			reg[r] = reg[r]<<1 | reg[r]>>63
		}
	}
	c.x = x
	c.sink += reg[3]
}

// tick samples when calibEvery has passed since the last sample; call
// it between timed operations.
func (c *calibrator) tick() {
	if c != nil && time.Since(c.last) >= calibEvery {
		c.sample()
	}
}

// burst takes n samples back to back, for an idle moment.
func (c *calibrator) burst(n int) {
	for i := 0; c != nil && i < n; i++ {
		c.sample()
	}
}

// scale converts a host time measured now to the reference speed.
func (c *calibrator) scale() float64 { return c.scaleOver(calibRecent) }

// scaleOver is the scale over the latest n samples; 1 uncalibrated.
func (c *calibrator) scaleOver(n int) float64 {
	if c == nil {
		return 1
	}
	return scaleOf(c.samples[max(0, len(c.samples)-n):])
}

// runScale is the scale over every sample of the run; 1 uncalibrated.
func (c *calibrator) runScale() float64 {
	if c == nil {
		return 1
	}
	return scaleOf(c.samples)
}

func scaleOf(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return float64(calibRef) / quantile(xs, 0.5)
}

// resetPeakRSS restarts the resident-set high-water mark (Linux
// clear_refs 5); where that is unavailable the mark keeps counting from
// process start.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSS returns this process's resident-set high-water mark in bytes
// (VmHWM), or 0 where /proc does not provide it.
func peakRSS() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb << 10
		}
	}
	return 0
}
