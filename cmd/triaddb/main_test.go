package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	triad "repro"
	"repro/internal/vfs"
)

// triaddb runs one invocation; every call reopens the store.
func triaddb(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestCommandsAcrossReopens drives put/get/del/scan/stats on a
// root-layout store, one process-equivalent per command, so every read
// is served by a recovered store.
func TestCommandsAcrossReopens(t *testing.T) {
	dir := t.TempDir()
	for _, kv := range [][2]string{{"apple", "red"}, {"banana", "yellow"}, {"cherry", "dark"}} {
		if code, _, stderr := triaddb(t, "-dir", dir, "put", kv[0], kv[1]); code != 0 {
			t.Fatalf("put %s: exit %d: %s", kv[0], code, stderr)
		}
	}
	if code, stdout, _ := triaddb(t, "-dir", dir, "get", "banana"); code != 0 || stdout != "yellow\n" {
		t.Fatalf("get banana: exit %d, %q", code, stdout)
	}
	if code, _, stderr := triaddb(t, "-dir", dir, "del", "banana"); code != 0 {
		t.Fatalf("del: exit %d: %s", code, stderr)
	}
	if code, stdout, _ := triaddb(t, "-dir", dir, "get", "banana"); code != 0 || stdout != "(not found)\n" {
		t.Fatalf("get deleted: exit %d, %q", code, stdout)
	}
	if code, stdout, _ := triaddb(t, "-dir", dir, "scan"); code != 0 || stdout != "apple = red\ncherry = dark\n" {
		t.Fatalf("scan: exit %d, %q", code, stdout)
	}
	if code, stdout, _ := triaddb(t, "-dir", dir, "scan", "b", "d"); code != 0 || stdout != "cherry = dark\n" {
		t.Fatalf("bounded scan: exit %d, %q", code, stdout)
	}
	code, stdout, _ := triaddb(t, "-dir", dir, "stats")
	if code != 0 {
		t.Fatalf("stats: exit %d", code)
	}
	for _, want := range []string{"shards: 1", "flushes:", "WA:", "per-shard balance"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stats lacks %q:\n%s", want, stdout)
		}
	}
}

// TestUsageErrors: malformed invocations exit 2 and say why.
func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-dir", dir, "-bg-workers", "-1", "get", "k"}, "-bg-workers -1"},
		{[]string{"-dir", dir, "-shards", "0", "put", "a", "b"}, "-shards 0"},
		{[]string{"-dir", dir, "-shards", "-2", "put", "a", "b"}, "-shards -2"},
		{[]string{"-dir", dir, "-cache-bytes", "-5", "get", "k"}, "-cache-bytes -5"},
		{[]string{"-dir", dir, "-cache-bytes", "-5", "get", "k"}, "Usage of triaddb"},
		{[]string{"-dir", dir, "-partitioner", "range", "get", "k"}, "flag provided but not defined: -partitioner"},
		{[]string{"-dir", dir}, "usage: triaddb"},
		{[]string{"-dir", dir, "put", "k"}, "usage: triaddb put"},
		{[]string{"-dir", dir, "frobnicate"}, "unknown command"},
		{[]string{"-dir", dir, "bench"}, "unknown command"},
	} {
		if code, _, stderr := triaddb(t, tc.args...); code != 2 || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("%v: exit %d, stderr %q; want 2 and %q", tc.args, code, stderr, tc.stderr)
		}
	}
}

// TestRefusesShardedRoot: the root of a store created with -shards opened
// without it is refused, not served empty; with the count it reads back.
func TestRefusesShardedRoot(t *testing.T) {
	dir := t.TempDir()
	if code, _, stderr := triaddb(t, "-dir", dir, "-shards", "3", "put", "k", "v"); code != 0 {
		t.Fatalf("sharded put: exit %d: %s", code, stderr)
	}
	if code, _, stderr := triaddb(t, "-dir", dir, "get", "k"); code != 1 || !strings.Contains(stderr, "created sharded") {
		t.Fatalf("open of a sharded root without -shards: exit %d, stderr %q", code, stderr)
	}
	if code, stdout, _ := triaddb(t, "-dir", dir, "-shards", "3", "get", "k"); code != 0 || stdout != "v\n" {
		t.Fatalf("sharded get: exit %d, %q", code, stdout)
	}
}

// TestRefusesShardsOverRoot: -shards over a store created without it is
// refused with exit 1, creates no shard directory, and the key still reads
// without -shards.
func TestRefusesShardsOverRoot(t *testing.T) {
	dir := t.TempDir()
	if code, _, stderr := triaddb(t, "-dir", dir, "put", "k", "v"); code != 0 {
		t.Fatalf("put: exit %d: %s", code, stderr)
	}
	if code, stdout, stderr := triaddb(t, "-dir", dir, "-shards", "2", "get", "k"); code != 1 || !strings.Contains(stderr, "created with 1 shard") {
		t.Fatalf("-shards 2 over a root store: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	if _, err := os.Stat(filepath.Join(dir, "shard-000")); !os.IsNotExist(err) {
		t.Fatalf("the refused open left shard-000: %v", err)
	}
	if code, stdout, _ := triaddb(t, "-dir", dir, "get", "k"); code != 0 || stdout != "v\n" {
		t.Fatalf("get without -shards: exit %d, %q", code, stdout)
	}
}

// TestScanReportsReadError: a scan that hits a damaged table exits 1 and
// says why, instead of printing the entries before the damage as the
// whole range.
func TestScanReportsReadError(t *testing.T) {
	dir := t.TempDir()
	fs, err := vfs.NewOSFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	db, err := triad.Open(triad.Options{FS: fs, Profile: triad.ProfileBaseline})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key-%05d", i)), bytes.Repeat([]byte{'v'}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Overwrite the start of every table's first data block: its entries
	// no longer decode, while the footer and index Open reads stay whole.
	tables, err := filepath.Glob(filepath.Join(dir, "*.sst"))
	if err != nil || len(tables) == 0 {
		t.Fatalf("no table files in %s: %v", dir, err)
	}
	for _, name := range tables {
		f, err := os.OpenFile(name, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(bytes.Repeat([]byte{0xff}, 64), 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	if code, _, stderr := triaddb(t, "-dir", dir, "-baseline", "scan"); code != 1 || !strings.HasPrefix(stderr, "triaddb: ") {
		t.Fatalf("scan over a damaged table: exit %d, stderr %q; want exit 1 and the error", code, stderr)
	}
}
