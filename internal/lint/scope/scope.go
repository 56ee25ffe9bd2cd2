// Package scope is the lint suite's single scoping registry: one table
// mapping each enforcement contract (Determinism, Errors, Ctx) to the
// internal packages it binds. detlint, errlint and ctxlint scope
// themselves by it instead of each carrying a private package map, and
// TestRegistryCoversInternal makes a new package impossible to forget:
// every internal/* package must either be a member of at least one
// contract here or be listed in Exempt with a reason.
package scope

import "strings"

// Contract names. Each analyzer that is package-scoped declares which
// contract bounds it; analyzers that apply structurally everywhere
// (doclint, keyedlint) need no entry.
const (
	// Determinism binds the simulation packages whose outputs must be
	// bit-reproducible (detlint).
	Determinism = "determinism"
	// Errors binds the result-integrity packages whose error returns must
	// be consumed (errlint).
	Errors = "errors"
	// Ctx binds the request/cell-path packages where cancellation is
	// cooperative and context discipline is enforced (ctxlint).
	Ctx = "ctx"
)

// sets is the registry proper: contract → member package names. A package
// is named by the last element of its import path; membership additionally
// requires an "internal" element somewhere above it (see Member), so the
// same rule applies to this module and to test fixture modules.
var sets = map[string]map[string]bool{
	Determinism: {
		"emu": true, "fetch": true, "pipeline": true, "predictor": true,
		"experiment": true, "stats": true, "trace": true, "workload": true,
		"ideal": true, "dfg": true, "btb": true, "core": true, "obs": true,
		"tracestore": true, "plan": true, "chunk": true,
	},
	Errors: {
		"stats": true, "tracestore": true, "experiment": true, "plan": true,
		"jobs": true,
	},
	Ctx: {
		"serve": true, "plan": true, "experiment": true, "jobs": true,
	},
}

// Exempt lists the internal packages deliberately outside every contract,
// each with the reason a reviewer needs. An exemption covers the named
// top-level internal/<name> directory and everything beneath it.
var Exempt = map[string]string{
	"asm": "programmatic assembler for workload definitions: pure code " +
		"construction, runs before any simulation state exists",
	"isa": "instruction-set constants and pure decoders: stateless " +
		"functions of their inputs, nothing to make nondeterministic",
	"lint": "the analysis tooling itself: never on a result path, and its " +
		"own fixtures must be free to violate every contract",
}

// Member reports whether pkgPath is bound by the named contract: the path
// has an "internal" element and its last element is in the contract's set.
// An unknown contract name binds nothing.
func Member(contract, pkgPath string) bool {
	parts := strings.Split(pkgPath, "/")
	if !sets[contract][parts[len(parts)-1]] {
		return false
	}
	for _, p := range parts[:len(parts)-1] {
		if p == "internal" {
			return true
		}
	}
	return false
}

// Covered reports whether the bare package name belongs to at least one
// contract set.
func Covered(name string) bool {
	for _, set := range sets {
		if set[name] {
			return true
		}
	}
	return false
}

// Members returns the contract's member names (unordered); callers that
// print them must sort. Nil for an unknown contract.
func Members(contract string) map[string]bool { return sets[contract] }
