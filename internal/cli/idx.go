package cli

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/idxfile"
	"repro/internal/index"
	"repro/internal/minhash"
)

// convert writes a TRACYIDX v4 index again, in place or to a new path,
// with -lsh adding the lsh sections. An older format (v0–v3) is refused as
// every serving verb refuses it, before any output is written. The output
// may be the input itself.
func (c *env) convert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	lsh := fs.Bool("lsh", false, "also persist MinHash signatures and their sorted band table for -prefilter-mode lsh")
	verify := fs.Bool("verify", true, "verify the output's checksums and records before it replaces anything")
	tf := telFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("convert: need input and output paths (tracy convert [-lsh] in.idx out.idx)")
	}
	if err := tf.activate(c.w, "convert"); err != nil {
		return err
	}
	src, dst := fs.Arg(0), fs.Arg(1)
	st, err := os.Stat(src)
	if err != nil {
		return err
	}
	db, err := index.OpenFile(src)
	if err != nil {
		return err
	}
	funcs := db.Len()
	if err := replaceIndex(db, dst, index.SaveOptions{LSH: lshParams(*lsh)}, *verify, db); err != nil {
		return fmt.Errorf("convert: %w", err)
	}
	var outBytes int64
	if out, _ := os.Stat(dst); out != nil {
		outBytes = out.Size()
	}
	fmt.Fprintf(c.w, "converted %s (%d functions, %d bytes) -> %s (TRACYIDX v%d, %d bytes)\n",
		src, funcs, st.Size(), dst, idxfile.Version, outBytes)
	return tf.finish(c.w)
}

// lshParams returns the lsh parameters Save persists with -lsh, or nil
// without it.
func lshParams(on bool) *minhash.Params {
	if !on {
		return nil
	}
	p := minhash.Default
	return &p
}

// replaceIndex saves db with o to path: the output goes to a temporary
// file beside it, src — the mapping db's entries decode from, when that may
// be path itself, or nil — is released, the new file passes
// verifyIndexFile when verify is set, and only then is it renamed over
// path. A write or a verification that fails leaves path as it was.
func replaceIndex(db *index.DB, path string, o index.SaveOptions, verify bool, src io.Closer) error {
	release := func() {
		if src != nil {
			src.Close()
		}
	}
	tmp := path + ".tmp"
	out, err := os.Create(tmp)
	if err != nil {
		release()
		return err
	}
	err = db.Save(out, o)
	if err2 := out.Close(); err == nil {
		err = err2
	}
	release()
	if err == nil && verify {
		if err = verifyIndexFile(tmp); err != nil {
			err = fmt.Errorf("%s failed verification: %w", path, err)
		}
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// verifyIndexFile opens a freshly written index and runs the full
// integrity pass: section checksums, every function read both ways, PACK's
// derived columns against the rebuilt instructions.
func verifyIndexFile(path string) error {
	db, err := index.OpenFile(path)
	if err != nil {
		return err
	}
	defer db.Close()
	return db.Store().Verify()
}

// idxinfo prints the header, section directory and entry counts of an
// index file without decoding function bodies.
func (c *env) idxinfo(args []string) error {
	fs := flag.NewFlagSet("idxinfo", flag.ExitOnError)
	verify := fs.Bool("verify", false, "recompute per-section checksums, rebuild every function, re-derive PACK's hashes, masks and profiles from it and check the lsh band table's order (touches every page)")
	tf := telFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("idxinfo: need exactly one index file")
	}
	if err := tf.activate(c.w, "idxinfo"); err != nil {
		return err
	}
	path := fs.Arg(0)
	db, err := index.OpenFile(path)
	if err != nil {
		return err
	}
	defer db.Close()
	info := db.Info()
	fmt.Fprintf(c.w, "%s: TRACYIDX v%d\n", path, info.Version)
	fmt.Fprintf(c.w, "  size:      %d bytes\n", info.Bytes)
	fmt.Fprintf(c.w, "  functions: %d\n", info.Funcs)
	st := db.Store()
	fmt.Fprintf(c.w, "  mapped:    %v\n", st.Mapped())
	if st.HasLSH() {
		p := st.LSHParams()
		fmt.Fprintf(c.w, "  lsh:       %d bands x %d rows (k=%d, seed %#x, threshold %.2f)\n",
			p.Bands, p.Rows, p.K(), p.Seed, p.Threshold())
		if st.LSHTable() != nil {
			fmt.Fprintf(c.w, "  lsh table: persisted (LSHT), probed in place\n")
		} else {
			fmt.Fprintf(c.w, "  lsh table: none, sorted from LSHB by the first lsh query (tracy convert -lsh adds it)\n")
		}
	}
	fmt.Fprintf(c.w, "  sections:\n")
	fmt.Fprintf(c.w, "    %-6s %10s %12s %8s  %s\n", "name", "offset", "bytes", "crc32c", "records")
	for _, s := range st.Sections() {
		rec := ""
		if s.Records > 0 {
			rec = fmt.Sprintf("%d", s.Records)
		}
		fmt.Fprintf(c.w, "    %-6s %10d %12d %08x  %s\n", s.Name, s.Offset, s.Len, s.CRC, rec)
	}
	if *verify {
		if err := st.Verify(); err != nil {
			return fmt.Errorf("idxinfo: %w", err)
		}
		fmt.Fprintf(c.w, "  checksums: all sections OK\n")
		fmt.Fprintf(c.w, "  records:   every function rebuilds and packs to what PACK holds\n")
		if st.LSHTable() != nil {
			fmt.Fprintf(c.w, "  lsh table: every band in (band hash, id) order\n")
		}
	}
	return tf.finish(c.w)
}
