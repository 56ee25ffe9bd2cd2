// Package stats is the known-bad fixture's target package: it is both
// inside the determinism contract (detlint) and an error-integrity API
// surface (errlint).
package stats

// Config is a configuration struct for keyedlint to guard.
type Config struct {
	Width  int
	Window int
}

// Collect violates detlint: map iteration order leaks into a slice.
func Collect(m map[string]float64) []string {
	var keys []string
	for k := range m { // detlint fires here
		keys = append(keys, k)
	}
	return keys
}

// Load returns an error callers must consume.
func Load(path string) error { return nil }

// Suppressed is an order-free accumulation deliberately written as an
// append so the fixture also proves the ignore directive works.
func Suppressed(m map[string]int) []int {
	var out []int
	//lint:ignore detlint fixture: directive on the line above must silence this
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// NoReason carries a directive without a reason: it suppresses nothing
// and is itself reported as a lint diagnostic.
func NoReason(m map[string]int) []string {
	var out []string
	//lint:ignore detlint
	for k := range m { // detlint still fires here
		out = append(out, k)
	}
	return out
}
