package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"valuepred/internal/stats"
)

// digestKey names one rendered table of one workload's inputs.
type digestKey struct {
	workload string
	seed     int64
	traceLen int
	exp      string
}

// checker compares every rendered table against its reference digest: the
// one recorded in recordedDigests for this workload, seed and length, or —
// for any other seed — the first rendering seen in this process, so that
// every later pass and the traced replay must agree with it byte for byte.
type checker struct {
	workload string
	seed     int64
	traceLen int
	seen     map[string]string // experiment -> first digest, for unrecorded inputs
}

func newChecker(workload string, seed int64, traceLen int) *checker {
	return &checker{workload: workload, seed: seed, traceLen: traceLen, seen: map[string]string{}}
}

// recorded reports whether the inputs have recorded digests, so the
// report can say which kind of reference a run was checked against.
func (c *checker) recorded() bool {
	for k := range recordedDigests {
		if k.workload == c.workload && k.seed == c.seed && k.traceLen == c.traceLen {
			return true
		}
	}
	return false
}

// check reports whether tab renders to its experiment's reference.
func (c *checker) check(exp string, tab *stats.Table) (bool, error) {
	d, err := tableDigest(tab)
	if err != nil {
		return false, err
	}
	if want, ok := recordedDigests[digestKey{c.workload, c.seed, c.traceLen, exp}]; ok {
		return d == want, nil
	}
	if want, ok := c.seen[exp]; ok {
		return d == want, nil
	}
	c.seen[exp] = d
	return true, nil
}

// tableDigest hashes the text rendering of tab, the form vpsim prints.
func tableDigest(tab *stats.Table) (string, error) {
	var b bytes.Buffer
	if err := tab.Render(&b); err != nil {
		return "", fmt.Errorf("rendering %q: %w", tab.Title, err)
	}
	return bodyDigest(b.Bytes()), nil
}

func bodyDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
