// Package stats provides the measurement utilities of the benchmark
// harness: latency histograms with percentiles, throughput accounting,
// and plain-text table rendering for the experiment reports.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// Histogram is a concurrency-safe latency histogram with logarithmically
// spaced buckets from 1µs to ~40s, plus exact min/max/sum.
type Histogram struct {
	mu      sync.Mutex
	buckets [bucketCount]uint64
	count   uint64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
}

const (
	bucketCount = 96
	// bucketBase is the geometric growth factor between bucket bounds:
	// 1.2x buckets are about 12.6 per decade (ln 10 / ln 1.2).
	bucketBase = 1.2
	bucketUnit = time.Microsecond
)

// bucketFor maps a latency to its bucket index.
func bucketFor(d time.Duration) int {
	if d < bucketUnit {
		return 0
	}
	i := int(math.Log(float64(d)/float64(bucketUnit)) / math.Log(bucketBase))
	if i < 0 {
		i = 0
	}
	if i >= bucketCount {
		i = bucketCount - 1
	}
	return i
}

// bucketUpper returns the upper bound latency of a bucket.
func bucketUpper(i int) time.Duration {
	return time.Duration(float64(bucketUnit) * math.Pow(bucketBase, float64(i+1)))
}

// Observe records one latency.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.buckets[bucketFor(d)]++
	h.count++
	h.sum += d
	if h.count == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the mean latency.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Min and Max return the extreme latencies.
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max returns the maximum observed latency.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Percentile returns an upper bound for the p-th percentile (0 < p <=
// 100) from the bucket boundaries.
func (h *Histogram) Percentile(p float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen >= rank {
			if i == bucketCount-1 {
				return h.max
			}
			return bucketUpper(i)
		}
	}
	return h.max
}

// Snapshot summarizes the histogram.
func (h *Histogram) Snapshot() Summary {
	return Summary{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Percentile(50),
		P95:   h.Percentile(95),
		P99:   h.Percentile(99),
		Min:   h.Min(),
		Max:   h.Max(),
	}
}

// Summary is a point-in-time histogram digest.
type Summary struct {
	Count               uint64
	Mean, P50, P95, P99 time.Duration
	Min, Max            time.Duration
}

// Meter counts completed operations and bytes over a wall-clock window.
type Meter struct {
	mu    sync.Mutex
	ops   uint64
	bytes uint64
	start time.Time
	end   time.Time
}

// Start begins the measurement window.
func (m *Meter) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.start = time.Now()
	m.end = time.Time{}
	m.ops, m.bytes = 0, 0
}

// Record adds one completed operation of the given payload size.
func (m *Meter) Record(bytes int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ops++
	m.bytes += uint64(bytes)
}

// Stop ends the window.
func (m *Meter) Stop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.end = time.Now()
}

// elapsed returns the window length.
func (m *Meter) elapsed() time.Duration {
	end := m.end
	if end.IsZero() {
		end = time.Now()
	}
	return end.Sub(m.start)
}

// OpsPerSecond returns the completion rate.
func (m *Meter) OpsPerSecond() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.elapsed().Seconds()
	if e <= 0 {
		return 0
	}
	return float64(m.ops) / e
}

// Mbps returns the payload throughput in Mbit/s.
func (m *Meter) Mbps() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.elapsed().Seconds()
	if e <= 0 {
		return 0
	}
	return float64(m.bytes) * 8 / e / 1e6
}

// Ops returns the operation count.
func (m *Meter) Ops() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ops
}

// Table renders experiment results as aligned plain text, the format
// EXPERIMENTS.md embeds.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddRowf appends a row of formatted values.
func (t *Table) AddRowf(format string, cells ...any) {
	parts := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			parts[i] = fmt.Sprintf(format, v)
		default:
			parts[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, parts)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// SortRowsByFirstColumnNumeric orders rows by their first cell parsed as
// a number, leaving unparsable rows at the end in input order.
func (t *Table) SortRowsByFirstColumnNumeric() {
	value := func(row []string) (float64, bool) {
		if len(row) == 0 {
			return 0, false
		}
		var f float64
		if _, err := fmt.Sscanf(row[0], "%g", &f); err != nil {
			return 0, false
		}
		return f, true
	}
	sort.SliceStable(t.Rows, func(i, j int) bool {
		a, aok := value(t.Rows[i])
		b, bok := value(t.Rows[j])
		if aok != bok {
			return aok
		}
		return a < b
	})
}
