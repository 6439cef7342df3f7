package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSnap is what the process has used so far. The whole benchmark is
// one process, so CPU and allocations include the load generator; the
// README says so next to every metric built on them.
type procSnap struct {
	cpu       time.Duration // user + system
	mallocs   uint64
	bytes     uint64
	gcPauseNS uint64
	// steal is CPU time the hypervisor gave to someone else while this
	// machine wanted it, all CPUs together (0 where /proc/stat has none).
	steal time.Duration
}

func readProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:   ms.Mallocs,
		bytes:     ms.TotalAlloc,
		gcPauseNS: ms.PauseTotalNs,
		steal:     hostSteal(),
	}
}

// hostSteal reads the steal column of /proc/stat's first line, which
// counts in ticks of 10 ms.
func hostSteal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

func (a procSnap) since(b procSnap) procSnap {
	return procSnap{
		cpu:       a.cpu - b.cpu,
		mallocs:   a.mallocs - b.mallocs,
		bytes:     a.bytes - b.bytes,
		gcPauseNS: a.gcPauseNS - b.gcPauseNS,
		steal:     a.steal - b.steal,
	}
}

// rssPeakMB is the process's resident-set high-water mark.
func rssPeakMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) > 0 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// allocsPerCall is testing.AllocsPerRun without the testing package.
func allocsPerCall(runs int, fn func()) float64 {
	fn() // warm pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// fsyncProbeUS is the median time of fsynced 4 KiB appends in dir: the
// device speed that every fsync-bound metric of a run rides on.
func fsyncProbeUS(dir string, n int) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	var h hist
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		h.record(int64(time.Since(t0)))
	}
	return float64(h.quantile(0.5)) / 1e3, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		p := dir + string(os.PathSeparator) + e.Name()
		if e.IsDir() {
			n, err := dirBytes(p)
			if err != nil {
				return 0, err
			}
			total += n
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}
