package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRecordAndDecodeRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.vpt")
	var out, errb strings.Builder
	err := run([]string{"-workload", "perl", "-len", "5000", "-o", path, "-dump", "3"}, &out, &errb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wrote 5000 records") {
		t.Errorf("record output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "insts=5000") {
		t.Errorf("missing summary:\n%s", out.String())
	}

	var out2 strings.Builder
	if err := run([]string{"-decode", path, "-dump", "2"}, &out2, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out2.String(), "insts=5000") {
		t.Errorf("decode output:\n%s", out2.String())
	}
	// The dumped records carry disassembly.
	if !strings.Contains(out2.String(), "#0") {
		t.Errorf("dump missing records:\n%s", out2.String())
	}
}

func TestErrors(t *testing.T) {
	var out, errb strings.Builder
	if err := run(nil, &out, &errb); err == nil {
		t.Error("no mode accepted")
	}
	if err := run([]string{"-workload", "nonesuch"}, &out, &errb); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run([]string{"-decode", "/nonexistent/file.vpt"}, &out, &errb); err == nil {
		t.Error("missing file accepted")
	}
	// A file in the retired VPT1 format: its magic, then record bytes.
	old := filepath.Join(t.TempDir(), "old.vpt")
	if err := os.WriteFile(old, []byte("VPT1\x80@\x8e\x8a\x14\x0a\x0a\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-decode", old}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "not a VPT2 trace file") {
		t.Errorf("VPT1 file: err = %v, want one naming the VPT2 format", err)
	}
}
