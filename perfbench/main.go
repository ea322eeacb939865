// Command perfbench is the repository's benchmark. One invocation runs
// one workload against a 3-server ring started in-process over loopback
// TCP (core.NewServer with the default lanes and train length on tcpnet
// session endpoints), driven by a single-process generator speaking the
// raw client wire protocol, and prints every metric by name, unit and
// sample count, then one JSON result line.
//
//	perfbench --workload read_mostly --seed 1 --seconds 45 --trace 0
//
// A run has two measured phases: an open-loop fixed-rate phase, timed
// from each request's scheduled send so a stall is charged to every
// request it delays, and a closed-loop saturation phase with a fixed
// window of outstanding requests per connection. --trace 0 reports the
// end-to-end metrics; --trace 1 runs the fixed-rate phase twice, first
// untraced and then with every server's endpoint wrapped in a span
// recorder, and reports the per-layer metrics (layers.go). Every run
// ends in the correctness gate (check.go); a failed gate exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
)

// workload is one traffic mix. Fixed rates were sized on a 2-vCPU host
// so that servers and generator together use a little over half of both
// CPUs. durable_contended runs at a quarter of its first sizing, which
// overran the disk on slow stretches, and is not in BENCHMARK.json: its
// numbers follow the host disk's fsync time (README.md).
type workload struct {
	name      string
	why       string
	readFrac  float64
	valueSize int
	objects   int
	rate      float64 // fixed-rate phase, operations/s over all connections
	window    int     // saturation phase, outstanding requests per connection
	wal       bool    // every server logs in wal.SyncTrain mode
}

var workloads = []workload{
	{
		name:     "read_mostly",
		why:      "demux-time lock-free reads, the ack fast path and per-object state size; the ring is barely loaded, so ring and WAL changes should not move it",
		readFrac: 0.9, valueSize: 128, objects: 16384, rate: 30000, window: 128,
	},
	{
		name:     "write_stream",
		why:      "the paper's write-throughput claim: lanes, frame trains, per-hop transit, writev egress and value elision; its reads show whether a write-path gain costs reads",
		readFrac: 0.1, valueSize: 1024, objects: 1024, rate: 10000, window: 128,
	},
	{
		name:     "durable_contended",
		why:      "WAL group commit and the send gate set write latency and reads park behind pending writes on 16 hot objects; ends in a full-membership restart",
		readFrac: 0.5, valueSize: 128, objects: 16, rate: 2000, window: 64, wal: true,
	},
}

const (
	nServers     = 3
	genClientID  = 1000 // first generator connection's process id
	postClientID = 1100 // connections opened after the restart
	libClientID  = 2000
	drainTimeout = 20 * time.Second
	warmup       = time.Second
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	dir      string
}

// metric is one reported number. n is the number of samples behind a
// sample statistic, or -1 for a ratio, count or single measurement.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

type result struct {
	attempted, failed uint64
	metrics           []metric
	info              []metric // printed, not part of the result line
	absent            []string // "metric: reason" for metrics not reported
	gateErr           error
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 45, "measured seconds (both phases together)")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&o.dir, "dir", ".bench_build/perfbench", "state directory (WAL segments)")
	flag.Parse()
	o.trace = trace == 1
	w := lookupWorkload(o.workload)
	if w == nil || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	printProvenance(w, &o)
	res, err := run(w, &o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, m := range res.metrics {
		printMetric("metric", m)
	}
	for _, m := range res.info {
		printMetric("info", m)
	}
	for _, a := range res.absent {
		fmt.Println("absent", a)
	}
	fmt.Printf("failed_frac %.6f (%d of %d)\n", ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	if res.gateErr != nil {
		fmt.Println("correctness gate FAILED:", res.gateErr)
	} else {
		fmt.Println("correctness gate passed")
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.gateErr == nil, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]value{}}
	for _, m := range res.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if res.gateErr != nil {
		os.Exit(1)
	}
}

func printMetric(label string, m metric) {
	n := ""
	if m.n >= 0 {
		n = fmt.Sprintf(" (n=%d)", m.n)
	}
	fmt.Printf("%s %-34s %14.4f %s%s\n", label, m.name, m.value, m.unit, n)
}

func lookupWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// printProvenance records the host, build and inputs of the run.
func printProvenance(w *workload, o *options) {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	_ = os.MkdirAll(o.dir, 0o755)
	fmt.Printf("provenance go=%s GOMAXPROCS=%d NumCPU=%d kernel=%s statefs=%s commit=%s seed=%d seconds=%d trace=%v\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), strings.TrimSpace(string(kernel)),
		fsName(o.dir), commit(), o.seed, o.seconds, o.trace)
	walMode := "none"
	if w.wal {
		walMode = "SyncTrain"
	}
	fmt.Printf("workload %s: reads=%.0f%% value=%dB objects=%d servers=%d lanes=%d train=%d conns=%d wal=%s\n",
		w.name, w.readFrac*100, w.valueSize, w.objects, nServers, core.DefaultWriteLanes, core.DefaultTrainLength, conns(), walMode)
	fmt.Printf("phases: open-loop fixed rate %.0f ops/s (timed from scheduled send), then closed-loop saturation with %d outstanding per connection\n",
		w.rate, w.window)
	fmt.Printf("why: %s\n", w.why)
}

// fsName names the filesystem holding dir (where the WAL lives).
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x9123683E: "btrfs", 0x2FC12FC1: "zfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// commit names the source revision when run from a git checkout.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	id, err := os.ReadFile(filepath.Join(".git", ref))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(id))
}
