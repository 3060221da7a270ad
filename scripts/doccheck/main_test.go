package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckDir: a documented package passes, each undocumented exported
// identifier counts once, and a directory with no Go package or one that
// cannot be read is an error with its own message rather than a count.
func TestCheckDir(t *testing.T) {
	write := func(dir, name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	documented := t.TempDir()
	write(documented, "a.go", "// Package a is documented.\npackage a\n\n// F is documented.\nfunc F() {}\n")
	if n, err := checkDir(documented); n != 0 || err != nil {
		t.Fatalf("documented package: %d, %v", n, err)
	}

	undocumented := t.TempDir()
	write(undocumented, "b.go", "package b\n\nfunc F() {}\n\ntype T int\n\nvar V = 1\n\nfunc unexported() {}\n")
	if n, err := checkDir(undocumented); n != 3 || err != nil {
		t.Fatalf("undocumented package: %d, %v; want 3, nil", n, err)
	}

	testsOnly := t.TempDir()
	write(testsOnly, "c_test.go", "package c\n\nfunc Helper() {}\n")
	if _, err := checkDir(testsOnly); err == nil || !strings.Contains(err.Error(), "no Go package") {
		t.Fatalf("directory with only tests: %v", err)
	}
	if _, err := checkDir(t.TempDir()); err == nil || !strings.Contains(err.Error(), "no Go package") {
		t.Fatalf("empty directory: %v", err)
	}
	missing := filepath.Join(t.TempDir(), "missing")
	if _, err := checkDir(missing); err == nil || !strings.Contains(err.Error(), "cannot read package") {
		t.Fatalf("missing directory: %v", err)
	}
}
