// Package use trips errlint and keyedlint.
package use

import "bad/internal/stats"

// Drop violates errlint: the stats error is discarded.
func Drop() {
	stats.Load("table") // errlint fires here
}

// Unkeyed violates keyedlint: positional configuration fields.
func Unkeyed() stats.Config {
	return stats.Config{16, 40} // keyedlint fires here
}
