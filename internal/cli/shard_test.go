package cli

import (
	"fmt"
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
