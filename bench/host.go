package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// hostInfo describes the machine a traced run measured on, so that a
// layer's achieved rate can be set against what this host sustains —
// not against perfmodel.PaperNode, which is the paper's Xeon.
type hostInfo struct {
	NProc      int   `json:"nproc"`
	GOMAXPROCS int   `json:"gomaxprocs"`
	LLCBytes   int64 `json:"llc_bytes"`
	// Triad and TriadLarge are single-threaded STREAM-triad rates
	// (a[i] = b[i] + s·c[i]) in GB/s, counting 24 computed bytes per
	// element.  Triad runs on three arrays that together are the size of
	// the kernel-3 working set — on a host whose last-level cache holds
	// that set, this is a cache rate, and it is the right divisor for
	// pagerank.bw_fraction.  TriadLarge runs on three arrays that
	// together are min(4×LLC, largeCap) (less if memory is short) and is
	// the nearest this program gets to DRAM bandwidth; first touch of a
	// page costs microseconds on a virtual machine, which is what caps
	// the size.
	Triad           float64 `json:"triad_gbps"`
	TriadBytes      int64   `json:"triad_total_bytes"`
	TriadLarge      float64 `json:"triad_large_gbps"`
	TriadLargeBytes int64   `json:"triad_large_total_bytes"`
	// K3CacheResident reports TriadBytes <= LLCBytes: the kernel-3
	// working set fits the last-level cache, so neither Triad nor the
	// kernel-3 rate is a DRAM figure.
	K3CacheResident bool `json:"k3_working_set_fits_llc"`
}

// probeHost measures the host.  k3Bytes is the kernel-3 working set and
// largeCap the most the large triad's arrays may occupy together.
func probeHost(k3Bytes, largeCap int64) hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), LLCBytes: llcBytes()}
	h.TriadBytes = k3Bytes
	h.Triad = triadGBps(k3Bytes / 3)
	h.K3CacheResident = h.LLCBytes > 0 && k3Bytes <= h.LLCBytes

	large := largeCap
	if h.LLCBytes > 0 && 4*h.LLCBytes < large {
		large = 4 * h.LLCBytes
	}
	// Never ask for more than half of what the kernel says is available.
	if avail := memAvailable(); avail > 0 && large > avail/2 {
		large = avail / 2
	}
	h.TriadLargeBytes = large
	h.TriadLarge = triadGBps(large / 3)
	return h
}

// triadGBps runs the triad over three arrays of arrayBytes each for at
// least 100 ms and two passes after a warm-up pass, and returns the
// best pass.
func triadGBps(arrayBytes int64) float64 {
	n := int(arrayBytes / 8)
	if n < 1024 {
		n = 1024
	}
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	triad(a, b, c, 3)
	best := 0.0
	start := time.Now()
	for pass := 0; pass < 2 || time.Since(start) < 100*time.Millisecond; pass++ {
		t0 := time.Now()
		triad(a, b, c, 3)
		if sec := time.Since(t0).Seconds(); sec > 0 {
			if r := 24 * float64(n) / sec / 1e9; r > best {
				best = r
			}
		}
	}
	sink = a[n/2]
	return best
}

// sink keeps the triad's result live so the loop is not removed.
var sink float64

func triad(a, b, c []float64, s float64) {
	b, c = b[:len(a)], c[:len(a)]
	for i := range a {
		a[i] = b[i] + s*c[i]
	}
}

// llcBytes reads the size of cpu0's highest-level cache from sysfs, or
// returns 0 where there is no sysfs.
func llcBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	best, bestLevel := int64(0), 0
	for _, d := range dirs {
		level, err := strconv.Atoi(readTrim(filepath.Join(d, "level")))
		if err != nil || level < bestLevel {
			continue
		}
		if t := readTrim(filepath.Join(d, "type")); t == "Instruction" {
			continue
		}
		if size := parseSize(readTrim(filepath.Join(d, "size"))); size > 0 {
			best, bestLevel = size, level
		}
	}
	return best
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// parseSize parses sysfs's "48K" / "2048K" / "260M" cache sizes.
func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n * mult
}

// procField returns the kB figure of one "Name:   123 kB" line of a
// /proc status file, in bytes, or 0.
func procField(path, name string) int64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		rest, ok := strings.CutPrefix(line, name+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			return 0
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

func memAvailable() int64 { return procField("/proc/meminfo", "MemAvailable") }

// peakRSSBytes is the process's resident-set high-water mark (VmHWM).
// Where /proc is missing it falls back to what the Go runtime has
// obtained from the OS, which is never 0.
func peakRSSBytes() int64 {
	if hwm := procField("/proc/self/status", "VmHWM"); hwm > 0 {
		return hwm
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}
