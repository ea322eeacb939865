//go:build !race

package wire

// raceEnabled reports whether the race detector is compiled in (it
// changes sync.Pool behavior: puts are randomly dropped, so pool reuse
// and allocation-count assertions must be skipped).
const raceEnabled = false
