package cli

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/index"
)

// shard splits one index into N disjoint TRACYIDX v4 slices for a
// scatter-gather fleet: every function lands on exactly one shard by
// index.ShardOf (FNV-1a over exe/name), so the shards' union is the
// input corpus and a coordinator merging per-shard top-K lists
// reproduces the single-index answer. Output files are written next to
// the input (or under -out) as <stem>.shard<i>-of-<n>.db, each ready
// for its own tracy serve worker.
func (c *env) shard(args []string) error {
	fs := flag.NewFlagSet("shard", flag.ExitOnError)
	n := fs.Int("n", 2, "number of shards to split into")
	outDir := fs.String("out", "", "output directory (default: the input's directory)")
	lsh := fs.Bool("lsh", false, "persist MinHash signatures and their sorted band table in every shard for -prefilter-mode lsh")
	verify := fs.Bool("verify", true, "re-open each shard and verify checksums after writing, before it replaces anything")
	tf := telFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("shard: need exactly one index file (tracy shard -n 4 tracy.db)")
	}
	if *n < 2 {
		return fmt.Errorf("shard: -n %d must be at least 2", *n)
	}
	if err := tf.activate(c.w, "shard"); err != nil {
		return err
	}
	src := fs.Arg(0)
	db, err := index.OpenFile(src)
	if err != nil {
		return err
	}
	defer db.Close()
	dir := *outDir
	if dir == "" {
		dir = filepath.Dir(src)
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := strings.TrimSuffix(filepath.Base(src), filepath.Ext(src))
	total := 0
	for i := 0; i < *n; i++ {
		dst := filepath.Join(dir, fmt.Sprintf("%s.shard%d-of-%d.db", stem, i, *n))
		o := index.SaveOptions{Shard: i, Shards: *n, LSH: lshParams(*lsh)}
		if err := replaceIndex(db, dst, o, *verify, nil); err != nil {
			return fmt.Errorf("shard: %w", err)
		}
		sdb, err := index.OpenFile(dst)
		if err != nil {
			return fmt.Errorf("shard: reopening %s: %w", dst, err)
		}
		info := sdb.Info()
		sdb.Close()
		total += info.Funcs
		fmt.Fprintf(c.w, "wrote %s (%d functions, %d bytes)\n", dst, info.Funcs, info.Bytes)
	}
	in := db.Info()
	if total != in.Funcs {
		return fmt.Errorf("shard: shards hold %d functions, input has %d", total, in.Funcs)
	}
	fmt.Fprintf(c.w, "sharded %s (%d functions) into %d disjoint slices\n", src, in.Funcs, *n)
	return tf.finish(c.w)
}
