package prep

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bin"
	"repro/internal/corpus"
	"repro/internal/tinyc"
)

// fuzzSeedImage compiles a small campaign-style image.
func fuzzSeedImage(tb testing.TB, opt tinyc.OptLevel, stripped bool) []byte {
	tb.Helper()
	srcs := make([]string, 4)
	for j := range srcs {
		srcs[j] = corpus.RandomFunc(fmt.Sprintf("fn_f_%d", j), 3_000_003+int64(j), corpus.GenConfig{Stmts: 8, Calls: true})
	}
	img, err := tinyc.Build(strings.Join(srcs, "\n"), tinyc.Config{Opt: opt, Seed: 101 + int64(opt)})
	if err != nil {
		tb.Fatal(err)
	}
	if stripped {
		if img, err = bin.Strip(img); err != nil {
			tb.Fatal(err)
		}
	}
	return img
}

// FuzzLiftImage feeds arbitrary bytes to the whole lift: ELF parsing,
// function discovery with its kept runs, CFG recovery and symbolisation.
// Whatever the input, nothing panics, a lift takes bounded time, and
// lifting one function by name yields exactly the element LiftImage
// returns for it — or, where LiftImage fails on some function, an error
// or a function, never a crash.
func FuzzLiftImage(f *testing.F) {
	for _, opt := range []tinyc.OptLevel{tinyc.O0, tinyc.O2} {
		img := fuzzSeedImage(f, opt, true)
		f.Add(img)
		f.Add(img[:len(img)/2])
		f.Add(img[:len(img)-7])
		// A flipped bit in a section header: the section-header table
		// offset is at byte 32 of the ELF header, a header's size field 20
		// bytes in.
		if shoff := int(img[32]) | int(img[33])<<8 | int(img[34])<<16; shoff+40+24 < len(img) {
			flipped := bytes.Clone(img)
			flipped[shoff+40+20] ^= 0x10
			f.Add(flipped)
		}
	}
	f.Add(fuzzSeedImage(f, tinyc.O1, false))
	f.Add(craft(f, cat(call(0, 6), []byte{0xB8, 0xC3, 0, 0, 0}), 0))

	f.Fuzz(func(t *testing.T, img []byte) {
		if len(img) > 1<<16 {
			return
		}
		start := time.Now()
		all, err := LiftImage(img)
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("LiftImage took %v on %d bytes", d, len(img))
		}
		var names []string
		if err == nil {
			for _, fn := range all {
				names = append(names, fn.Name)
			}
		} else if f, rerr := bin.Read(img); rerr == nil {
			// Some function failed to lift; the others still answer by name.
			ims, _ := f.Functions()
			for _, im := range ims {
				names = append(names, im.Name)
			}
		}
		if len(names) > 48 {
			names = names[:48]
		}
		seen := map[string]bool{}
		for i, name := range names {
			if seen[name] {
				continue // LiftNamed answers the first of a name
			}
			seen[name] = true
			got, nerr := LiftNamed(img, name)
			if errors.Is(nerr, ErrNoFunction) {
				t.Fatalf("LiftNamed does not know %s, which discovery found", name)
			}
			if err != nil {
				continue
			}
			if nerr != nil {
				t.Fatalf("LiftNamed(%s): %v, but LiftImage lifted it", name, nerr)
			}
			if !reflect.DeepEqual(got, all[i]) {
				t.Fatalf("LiftNamed(%s) differs from LiftImage's element", name)
			}
		}
	})
}
