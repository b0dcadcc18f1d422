package prep

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/tinyc"
)

// TestLiftAllocs guards what "decoded once, carved once" buys: lifting an
// image allocates a few objects per function — the sweep's chunks are per
// image, the rest is the function's name, graph, blocks, edges, depth
// array and, most of them, the symbol names symbolisation coins — where it
// used to allocate about four per instruction, twice over (~420 per
// function of these images).
func TestLiftAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("measures allocations over campaign images")
	}
	// Measured on these images: 52.4, 46.6 and 44.2 objects per function at
	// O0, O1 and O2 (108, 73 and 80 instructions per function); the ceiling
	// is the worst plus a quarter.
	const ceiling = 65.5
	// The campaign compiles ahead while it emits: collect first, so that
	// nothing else allocates while a lift is measured.
	var exes []corpus.Executable
	_, err := corpus.RunCampaign(corpus.CampaignConfig{Seed: 9, Funcs: 96, FuncsPerExe: 32, Stmts: 10, Workers: 1},
		func(e corpus.Executable, _ tinyc.OptLevel) error { exes = append(exes, e); return nil })
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range exes {
		fns, st, err := liftImageStats(e.Image)
		if err != nil {
			t.Fatal(err)
		}
		if st.Kept != len(fns) {
			t.Errorf("%s: %d of %d functions lifted from kept instructions", e.Name, st.Kept, len(fns))
		}
		allocs := testing.AllocsPerRun(5, func() { _, _ = LiftImage(e.Image) })
		per := allocs / float64(len(fns))
		t.Logf("%s: %.0f allocations for %d functions, %d instructions: %.1f per function", e.Name, allocs, len(fns), st.Decoded, per)
		if per > ceiling {
			t.Errorf("%s: %.1f allocations per lifted function, ceiling %.1f", e.Name, per, ceiling)
		}
	}
}
