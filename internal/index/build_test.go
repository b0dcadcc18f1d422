package index

import (
	"bytes"
	"context"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/idxfile"
	"repro/internal/minhash"
	"repro/internal/prep"
	"repro/internal/telemetry"
	"repro/internal/tinyc"
)

// BenchmarkBuild4k measures the write path end to end, the shape of the
// ingest-4k workload: AddImage for each of the 126 images of a
// 4032-function campaign, then Save with lsh. It reports functions/s next to
// B/op and allocs/op, the collector cycles one build ran, and how the
// build's wall time splits into its two stages: lift-ms/op for the AddImage
// loop (the stream's batch of the last image may still be in flight when it
// ends) and save-ms/op for Save (which joins it first).
func BenchmarkBuild4k(b *testing.B) {
	var exes []corpus.Executable
	_, err := corpus.RunCampaign(corpus.CampaignConfig{Seed: 1, Funcs: 4032, FuncsPerExe: 32, Stmts: 10, Workers: 2},
		func(e corpus.Executable, _ tinyc.OptLevel) error { exes = append(exes, e); return nil })
	if err != nil {
		b.Fatal(err)
	}
	var ms0, ms1 runtime.MemStats
	var lift, save time.Duration
	funcs := 0
	b.ReportAllocs()
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		db := New()
		for _, e := range exes {
			if err := db.AddImage(e.Name, e.Image, e.Truth); err != nil {
				b.Fatal(err)
			}
		}
		t1 := time.Now()
		if err := db.Save(io.Discard, SaveOptions{LSH: &minhash.Default}); err != nil {
			b.Fatal(err)
		}
		lift, save = lift+t1.Sub(t0), save+time.Since(t1)
		funcs += db.Len()
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	b.ReportMetric(float64(funcs)/b.Elapsed().Seconds(), "functions/s")
	b.ReportMetric(float64(ms1.NumGC-ms0.NumGC)/float64(b.N), "gc-cycles/op")
	b.ReportMetric(lift.Seconds()*1e3/float64(b.N), "lift-ms/op")
	b.ReportMetric(save.Seconds()*1e3/float64(b.N), "save-ms/op")
}

// TestWritePathTelemetry: a database with a collector reports its build
// into it — a timed lift per image, every function lifted, each
// instruction decoded once, and per save its time and the bytes written.
func TestWritePathTelemetry(t *testing.T) {
	tel := telemetry.New()
	db := New()
	db.Tel = tel
	images, insts := 0, 0
	_, err := corpus.RunCampaign(corpus.CampaignConfig{Seed: 4, Funcs: 96, FuncsPerExe: 16, Stmts: 8, Workers: 1},
		func(e corpus.Executable, _ tinyc.OptLevel) error {
			images++
			return db.AddImage(e.Name, e.Image, e.Truth)
		})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range db.Entries {
		insts += e.fn.NumInsts()
	}
	var lsh, plain bytes.Buffer
	if err := db.Save(&lsh, SaveOptions{LSH: &minhash.Default}); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(&plain, SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	s := tel.Snapshot()
	if got := s.Counters["functions_lifted"]; got != uint64(db.Len()) {
		t.Errorf("functions_lifted %d, want %d", got, db.Len())
	}
	if got := s.Counters["instructions_decoded"]; got != uint64(insts) {
		t.Errorf("instructions_decoded %d, the functions hold %d: a byte was decoded twice or never", got, insts)
	}
	if got := s.Histograms["lift_latency"].Count; got != uint64(images) {
		t.Errorf("lift_latency holds %d observations for %d images", got, images)
	}
	if got := s.Histograms["index_save_latency"].Count; got != 2 {
		t.Errorf("index_save_latency holds %d observations for 2 saves", got)
	}
	if got, want := s.Counters["index_bytes_written"], uint64(lsh.Len()+plain.Len()); got != want {
		t.Errorf("index_bytes_written %d, the two files hold %d", got, want)
	}
}

// TestLossyOperandsRefused: the two operand shapes the packed form cannot
// carry — a memory operand with the offset flag, and one with a direct
// argument beside its terms — are refused by ValidateFunction (so by both
// legacy reader and the fleet's query wire) and by the index writer, on
// Add and on Append (through Save), with an *asm.LossyOperandError
// instead of a record that would lose them. A database holding such an
// entry cannot be sealed into the file its searches view, so its View
// and BuildSnapshot searches, by-reference lookups and Decomposed return
// that error too.
func TestLossyOperandsRefused(t *testing.T) {
	ebx := []asm.MemTerm{{Arg: asm.RegArg(asm.EBX)}, {Op: asm.OpAdd, Arg: asm.ImmArg(8)}}
	for name, op := range map[string]asm.Operand{
		"offset memory operand":          {Offset: true, Mem: ebx},
		"memory operand with direct arg": {Arg: asm.SymArg(asm.SymData, "tbl"), Mem: ebx},
	} {
		g := &cfg.Graph{Name: "f", Blocks: []*cfg.Block{{Insts: []asm.Inst{
			asm.New("mov", asm.RegOp(asm.EAX), op), asm.New("ret"),
		}}}}
		fn := &prep.Function{Name: "f", Graph: g}
		var lossy *asm.LossyOperandError
		if err := ValidateFunction(fn); !errors.As(err, &lossy) || lossy.Operand != 1 {
			t.Errorf("%s: ValidateFunction returned %v", name, err)
		}
		b := idxfile.NewBuilder()
		b.Add("x", fn, "", nil)
		if _, err := b.WriteTo(io.Discard); !errors.As(err, &lossy) {
			t.Errorf("%s: Builder.Add then WriteTo returned %v", name, err)
		}
		db := New()
		db.Entries = []*Entry{{Exe: "x", Name: "f", fn: fn}}
		if err := db.Save(io.Discard, SaveOptions{}); !errors.As(err, &lossy) {
			t.Errorf("%s: Save returned %v", name, err)
		}
		q := Query{Func: fn, Opts: core.DefaultOptions()}
		served := BuildSnapshot(db, nil, 1)
		for via, snap := range map[string]*Snapshot{"View": db.View(), "BuildSnapshot": served} {
			if a, err := snap.Search(context.Background(), q); !errors.As(err, &lossy) || a.Hits != nil {
				t.Errorf("%s: %s().Search returned %d hits, %v", name, via, len(a.Hits), err)
			}
			if _, err := snap.PrefilterRankWith(context.Background(), core.Decompose(fn, 3), 1, ModeLSH); !errors.As(err, &lossy) {
				t.Errorf("%s: %s().PrefilterRankWith returned %v", name, via, err)
			}
		}
		if d, err := served.LookupDecomposed("x", "f", 3); d != nil || !errors.As(err, &lossy) {
			t.Errorf("%s: LookupDecomposed returned %v, %v", name, d, err)
		}
		if ds, err := db.Decomposed(3); ds != nil || !errors.As(err, &lossy) {
			t.Errorf("%s: Decomposed returned %d decompositions, %v", name, len(ds), err)
		}
	}
}
