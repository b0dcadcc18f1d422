package cli

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/index"
)

// TestShardRoundTrip: tracy shard splits an index into verified disjoint
// index slices whose union is the input corpus, with every function placed
// on the shard index.ShardOf assigns it.
func TestShardRoundTrip(t *testing.T) {
	dir := t.TempDir()
	dbPath := buildTestIndex(t, dir)
	src, err := index.OpenFile(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	want := src.Len()
	src.Close()

	const n = 3
	out, err := run(t, "shard", "-n", fmt.Sprint(n), dbPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, fmt.Sprintf("into %d disjoint slices", n)) {
		t.Errorf("shard summary missing:\n%s", out)
	}

	seen := make(map[string]int)
	total := 0
	for i := 0; i < n; i++ {
		path := filepath.Join(dir, fmt.Sprintf("test.shard%d-of-%d.db", i, n))
		if _, err := run(t, "idxinfo", "-verify", path); err != nil {
			t.Fatalf("shard %d fails verification: %v", i, err)
		}
		sdb, err := index.OpenFile(path)
		if err != nil {
			t.Fatalf("reopening shard %d: %v", i, err)
		}
		if sdb.Info().Version != 4 {
			t.Errorf("shard %d is not TRACYIDX v4", i)
		}
		for _, e := range sdb.Entries {
			key := e.Exe + "/" + e.Name
			if prev, dup := seen[key]; dup {
				t.Errorf("function %s on both shard %d and %d", key, prev, i)
			}
			seen[key] = i
			if got := index.ShardOf(e.Exe, e.Name, n); got != i {
				t.Errorf("function %s on shard %d, ShardOf assigns %d", key, i, got)
			}
			total++
		}
		sdb.Close()
	}
	if total != want {
		t.Errorf("shards hold %d functions, input has %d", total, want)
	}
}

// TestShardErrors: bad arity and bad -n are rejected up front.
func TestShardErrors(t *testing.T) {
	if _, err := run(t, "shard"); err == nil {
		t.Error("shard accepted zero args")
	}
	if _, err := run(t, "shard", "-n", "1", "x.db"); err == nil {
		t.Error("shard accepted -n 1")
	}
	if _, err := run(t, "shard", "/nonexistent.db"); err == nil {
		t.Error("shard accepted a missing input")
	}
}

// TestReplaceIndexKeepsTarget: every slice tracy shard writes goes through
// replaceIndex, which leaves the file it would replace as it was, and no
// temporary file, when the write fails, and which leaves open a source
// that is not the file it replaces, so every slice of one source is
// written.
func TestReplaceIndexKeepsTarget(t *testing.T) {
	dir := t.TempDir()
	src, err := index.OpenFile(buildTestIndex(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst := filepath.Join(dir, "test.shard0-of-2.db")
	if err := os.WriteFile(dst, []byte("a good shard"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := replaceIndex(src, dst, index.SaveOptions{Shard: 2, Shards: 2}, true, nil); err == nil {
		t.Fatal("replaceIndex wrote shard 2 of 2")
	}
	if data, _ := os.ReadFile(dst); string(data) != "a good shard" {
		t.Errorf("a failed write replaced the shard with %d bytes", len(data))
	}
	if _, err := os.Stat(dst + ".tmp"); !os.IsNotExist(err) {
		t.Error("a failed write left its temporary file behind")
	}
	for i := 0; i < 2; i++ {
		path := filepath.Join(dir, fmt.Sprintf("test.shard%d-of-2.db", i))
		if err := replaceIndex(src, path, index.SaveOptions{Shard: i, Shards: 2}, true, nil); err != nil {
			t.Fatalf("slice %d: %v", i, err)
		}
	}
}
