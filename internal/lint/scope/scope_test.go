package scope

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestMember(t *testing.T) {
	for _, tc := range []struct {
		contract, path string
		want           bool
	}{
		{Determinism, "valuepred/internal/emu", true},
		{Determinism, "valuepred/internal/plan", true},
		{Determinism, "fix/internal/ideal", true}, // fixture modules match too
		{Determinism, "valuepred/internal/serve", false},
		{Determinism, "emu", false}, // no internal element
		{Determinism, "valuepred/cmd/vpsim", false},
		{Errors, "valuepred/internal/stats", true},
		{Errors, "valuepred/internal/fetch", false},
		{Ctx, "valuepred/internal/serve", true},
		{Ctx, "valuepred/internal/experiment", true},
		{Ctx, "valuepred/internal/ideal", false},
		{"nosuch", "valuepred/internal/emu", false},
	} {
		if got := Member(tc.contract, tc.path); got != tc.want {
			t.Errorf("Member(%q, %q) = %v, want %v", tc.contract, tc.path, got, tc.want)
		}
	}
}

// repoInternalDirs walks up from the test's working directory to the
// module root (the go.mod declaring module valuepred) and returns the
// top-level internal/* directory names that contain at least one
// non-test Go file anywhere beneath them.
func repoInternalDirs(t *testing.T) []string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(string(b), "module valuepred") {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("module root with `module valuepred` not found above the test directory")
		}
		dir = parent
	}
	root := filepath.Join(dir, "internal")
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		hasGo := false
		err := filepath.WalkDir(filepath.Join(root, e.Name()), func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir // fixture modules are not repo packages
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				hasGo = true
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if hasGo {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

// TestRegistryCoversInternal is the scoping-drift gate: every internal/*
// package must either be a member of at least one lint contract or carry
// an explicit exemption with a reason. A new package (the next
// internal/stream, say) that is neither fails this test until its author
// decides — and records — which contracts bind it.
func TestRegistryCoversInternal(t *testing.T) {
	for _, name := range repoInternalDirs(t) {
		covered := Covered(name)
		reason, exempt := Exempt[name]
		switch {
		case covered && exempt:
			t.Errorf("internal/%s is both in a contract set and exempt (%q); pick one", name, reason)
		case !covered && !exempt:
			t.Errorf("internal/%s is in no lint contract and not exempt; add it to a scope set or to scope.Exempt with a reason", name)
		case exempt && strings.TrimSpace(reason) == "":
			t.Errorf("internal/%s is exempt without a reason", name)
		}
	}
}

// TestRegistryHasNoStaleEntries is the reverse drift direction: a set or
// exemption entry naming a package that no longer exists in the tree is
// dead weight that misleads the next reader.
func TestRegistryHasNoStaleEntries(t *testing.T) {
	have := make(map[string]bool)
	for _, name := range repoInternalDirs(t) {
		have[name] = true
	}
	for contract, set := range sets {
		for name := range set {
			if !have[name] {
				t.Errorf("scope set %q names internal/%s, which does not exist", contract, name)
			}
		}
	}
	for name := range Exempt {
		if !have[name] {
			t.Errorf("scope.Exempt names internal/%s, which does not exist", name)
		}
	}
}
