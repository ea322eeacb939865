package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// procSample is one reading of the process-level counters, taken from
// outside the program under test: getrusage, /proc/self/io and
// runtime/metrics. A source that cannot be read leaves its ok flag
// false, and every metric derived from it is reported absent, never as
// zero.
type procSample struct {
	cpuNs    int64 // user + system CPU time
	maxRSSKB int64
	volCtxSw int64
	rusageOK bool

	syscalls int64 // syscr + syscw
	ioOK     bool

	allocBytes uint64
	gcCycles   uint64
	heapLive   uint64 // live heap as of the last completed GC
	rtOK       bool
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/heap/live:bytes"},
}

// readProc samples every process counter.
func readProc() procSample {
	var p procSample
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.rusageOK = true
		p.cpuNs = ru.Utime.Nano() + ru.Stime.Nano()
		p.maxRSSKB = ru.Maxrss
		p.volCtxSw = ru.Nvcsw
	}
	if sc, err := readProcIO(); err == nil {
		p.ioOK = true
		p.syscalls = sc
	}
	metrics.Read(rtSamples)
	p.rtOK = true
	for _, s := range rtSamples {
		p.rtOK = p.rtOK && s.Value.Kind() == metrics.KindUint64
	}
	if p.rtOK {
		p.allocBytes = rtSamples[0].Value.Uint64()
		p.gcCycles = rtSamples[1].Value.Uint64()
		p.heapLive = rtSamples[2].Value.Uint64()
	}
	return p
}

// readProcIO returns syscr+syscw from /proc/self/io.
func readProcIO() (int64, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var total int64
	found := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || (k != "syscr" && k != "syscw") {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parse /proc/self/io %s: %w", k, err)
		}
		total += n
		found++
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if found != 2 {
		return 0, fmt.Errorf("/proc/self/io: syscr/syscw missing")
	}
	return total, nil
}
