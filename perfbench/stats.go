package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"twolevel/internal/buildinfo"
)

// quantile returns the q-quantile of raw samples, interpolating linearly
// between the two nearest order statistics. It sorts a copy, so callers
// keep their sample order. Samples are never bucketed: a p50 and a p95
// drawn from different populations always differ.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

// windowQuantile is the median, over windows, of each window's
// q-quantile. A short stall of the machine moves one window's tail, not
// the reported figure; a slowdown of the program moves every window.
func windowQuantile(windows [][]float64, q float64) (value float64, samples int) {
	var per []float64
	for _, w := range windows {
		if len(w) > 0 {
			per = append(per, quantile(w, q))
			samples += len(w)
		}
	}
	return median(per), samples
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rssPeakMB reads the process's peak resident set size (VmHWM) in MB,
// or -1 when the platform does not expose it.
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return -1
		}
		return kb / 1024
	}
	return -1
}

// setRSS records rss_peak_mb when the platform exposes it.
func setRSS(r *result) {
	if v := rssPeakMB(); v > 0 {
		r.set("rss_peak_mb", v, "MB", 0, "")
	}
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// provenance stamps every result with what produced it.
type provenance struct {
	Build      buildinfo.Info `json:"build"`
	NumCPU     int            `json:"nproc"`
	GoMaxProcs int            `json:"gomaxprocs"`
	CPUModel   string         `json:"cpu_model,omitempty"`
}

func readProvenance() provenance {
	return provenance{
		Build:      buildinfo.Read(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
	}
}

// cpuModel reads the processor model name from /proc/cpuinfo; empty
// where the platform does not expose one.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

// timedSetup runs setup reps times and returns the last result with the
// median set-up time, so a stray slow repetition does not move setup_s.
func timedSetup[T any](reps int, setup func() (T, error)) (T, float64, error) {
	var v T
	var secs []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		var err error
		if v, err = setup(); err != nil {
			return v, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return v, median(secs), nil
}

// setupReps is how many times each workload sets up per run.
const setupReps = 5
