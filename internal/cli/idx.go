package cli

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/idxfile"
	"repro/internal/index"
	"repro/internal/minhash"
)

// convert migrates an index file between formats: any loadable format
// (v0–v3) in, v3 columnar or v2 gob out. Converting to v3 is the
// migration path for corpora that should be served via mmap.
func (c *env) convert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	to := fs.String("to", "v3", "output format: v3 (columnar, mmap-served) or gob (v2)")
	lsh := fs.Bool("lsh", false, "also persist MinHash signatures and their sorted band table for -prefilter-mode lsh (v3 output only; re-run on an older v3 file to add the table)")
	verify := fs.Bool("verify", true, "re-open the output and verify checksums after writing")
	tf := telFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("convert: need input and output paths (tracy convert [-to v3|gob] in.db out.db)")
	}
	if *to != "v3" && *to != "gob" {
		return fmt.Errorf("convert: unknown output format %q (want v3 or gob)", *to)
	}
	if *lsh && *to != "v3" {
		return fmt.Errorf("convert: -lsh needs -to v3")
	}
	if err := tf.activate(c.w, "convert"); err != nil {
		return err
	}
	src, dst := fs.Arg(0), fs.Arg(1)
	db, err := index.OpenFile(src)
	if err != nil {
		return err
	}
	defer db.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	switch {
	case *to == "v3" && *lsh:
		err = db.SaveV3LSH(out, minhash.Default)
	case *to == "v3":
		err = db.SaveV3(out)
	default:
		err = db.Save(out)
	}
	if err2 := out.Close(); err == nil {
		err = err2
	}
	if err != nil {
		os.Remove(dst)
		return fmt.Errorf("convert: %w", err)
	}
	if *verify {
		if err := verifyIndexFile(dst); err != nil {
			os.Remove(dst)
			return fmt.Errorf("convert: output failed verification: %w", err)
		}
	}
	st, _ := os.Stat(dst)
	var outBytes int64
	if st != nil {
		outBytes = st.Size()
	}
	in := db.Info()
	fmt.Fprintf(c.w, "converted %s (v%d, %d functions, %d bytes) -> %s (%s, %d bytes)\n",
		src, in.Version, in.Funcs, in.Bytes, dst, *to, outBytes)
	return tf.finish(c.w)
}

// verifyIndexFile re-opens a freshly written index and checks it loads;
// v3 files additionally get the full integrity pass: section checksums,
// every function read both ways, PACK against the records.
func verifyIndexFile(path string) error {
	db, err := index.OpenFile(path)
	if err != nil {
		return err
	}
	defer db.Close()
	if st := db.Store(); st != nil {
		return st.Verify()
	}
	return nil
}

// idxinfo prints the header, section directory and entry counts of any
// v0–v3 index file without decoding function bodies (v3) or while
// reporting what a full decode found (gob formats, which have no cheaper
// inspection path).
func (c *env) idxinfo(args []string) error {
	fs := flag.NewFlagSet("idxinfo", flag.ExitOnError)
	verify := fs.Bool("verify", false, "recompute per-section checksums, decode every function, re-derive PACK from the records and check the lsh band table's order (v3; touches every page)")
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
	if st == nil {
		// Gob formats carry no section directory; report the decoded shape.
		fmt.Fprintf(c.w, "  layout:    gob object graph (no sections; convert with tracy convert -to v3)\n")
		blocks, insts := 0, 0
		for _, e := range db.Entries {
			fn := e.Function()
			blocks += fn.NumBlocks()
			insts += fn.NumInsts()
		}
		fmt.Fprintf(c.w, "  blocks:    %d\n  insts:     %d\n", blocks, insts)
		return tf.finish(c.w)
	}
	fmt.Fprintf(c.w, "  mapped:    %v\n", st.Mapped())
	if st.HasLSH() {
		p := st.LSHParams()
		fmt.Fprintf(c.w, "  lsh:       %d bands x %d rows (k=%d, seed %#x, threshold %.2f)\n",
			p.Bands, p.Rows, p.K(), p.Seed, p.Threshold())
		if st.LSHTable() != nil {
			fmt.Fprintf(c.w, "  lsh table: persisted (LSHT), probed in place\n")
		} else {
			fmt.Fprintf(c.w, "  lsh table: none, sorted from LSHB by the first lsh query (tracy convert -to v3 -lsh adds it)\n")
		}
	}
	if st.HasPack() {
		var packBytes uint64
		for _, s := range st.Sections() {
			if s.Name == idxfile.SecPACK {
				packBytes = s.Len
			}
		}
		fmt.Fprintf(c.w, "  pack:      persisted (PACK), %d B/function, compared in place\n", packBytes/uint64(max(info.Funcs, 1)))
	} else {
		fmt.Fprintf(c.w, "  pack:      none, decoded and packed at first touch (tracy convert -to v3 adds it)\n")
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
		fmt.Fprintf(c.w, "  records:   every function decodes\n")
		if st.HasPack() {
			fmt.Fprintf(c.w, "  pack:      every function packs to what PACK holds\n")
		}
		if st.LSHTable() != nil {
			fmt.Fprintf(c.w, "  lsh table: every band in (band hash, id) order\n")
		}
	}
	return tf.finish(c.w)
}
