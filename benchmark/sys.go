package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// procField returns the text after "key:" on the first line of a /proc
// file that starts with it, or "" when the file or the line is missing.
func procField(path, key string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return ""
}

func cpuModel() string {
	if m := procField("/proc/cpuinfo", "model name"); m != "" {
		return m
	}
	return "unknown"
}

// readVmHWM is the process's peak resident set in bytes (0 without /proc).
func readVmHWM() uint64 {
	f := strings.Fields(procField("/proc/self/status", "VmHWM"))
	if len(f) == 0 {
		return 0
	}
	kb, _ := strconv.ParseUint(f[0], 10, 64) // 0 on a malformed line, like a missing one
	return kb * 1024
}

func loadAvg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64) // 0 on a malformed file, like a missing one
	return v
}

// cpuTicks reads the machine-wide busy and total CPU ticks.
func cpuTicks() (busy, total uint64) {
	f := strings.Fields(procField("/proc/stat", "cpu "))
	for i, s := range f {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i != 3 && i != 4 { // idle, iowait
			busy += v
		}
	}
	return busy, total
}

// cpuBusy is the share of the machine's CPU time in use over the next d,
// sampled while this process sleeps (0 without /proc).
func cpuBusy(d time.Duration) float64 {
	b0, t0 := cpuTicks()
	time.Sleep(d)
	b1, t1 := cpuTicks()
	if t1 <= t0 {
		return 0
	}
	return float64(b1-b0) / float64(t1-t0)
}
