package corpus

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/bin"
	"repro/internal/tinyc"
)

// CampaignConfig sizes a scale campaign: a 10⁴–10⁶ function corpus
// generated and compiled in parallel with bounded memory, the regime the
// columnar index exists for. Functions come in groups: each group's
// sources are compiled once per opt level (cross-opt-level ground-truth
// duplicates, the paper's hardest same-function axis) under a distinct
// context seed per executable.
type CampaignConfig struct {
	Seed        int64
	Funcs       int              // total function target across all executables
	FuncsPerExe int              // functions per executable (default 32)
	Stmts       int              // statement budget per function (default 12)
	OptLevels   []tinyc.OptLevel // cycled per group (default O0,O1,O2)
	Workers     int              // parallel build workers (default GOMAXPROCS)
}

// withDefaults fills the zero fields.
func (cfg CampaignConfig) withDefaults() CampaignConfig {
	if cfg.FuncsPerExe <= 0 {
		cfg.FuncsPerExe = 32
	}
	if cfg.Stmts <= 0 {
		cfg.Stmts = 12
	}
	if len(cfg.OptLevels) == 0 {
		cfg.OptLevels = []tinyc.OptLevel{tinyc.O0, tinyc.O1, tinyc.O2}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Funcs <= 0 {
		cfg.Funcs = 1000
	}
	return cfg
}

// NumExes returns how many executables the campaign will emit.
func (cfg CampaignConfig) NumExes() int {
	c := cfg.withDefaults()
	perGroup := c.FuncsPerExe * len(c.OptLevels)
	groups := (c.Funcs + perGroup - 1) / perGroup
	return groups * len(c.OptLevels)
}

// RunCampaign generates the campaign corpus, invoking emit once per
// executable in deterministic order (group-major, then opt level).
// Compilation runs on cfg.Workers goroutines; at most a small window of
// finished executables is held in memory, so the campaign streams — the
// caller is expected to index or write each image and drop it. emit
// returning an error aborts the campaign.
//
// Function sources are deterministic in (Seed, group, index): rerunning
// a campaign regenerates the same corpus byte for byte.
func RunCampaign(cfg CampaignConfig, emit func(Executable, tinyc.OptLevel) error) (int, error) {
	c := cfg.withDefaults()
	nExes := c.NumExes()
	groups := nExes / len(c.OptLevels)

	type futureT struct {
		exe Executable
		opt tinyc.OptLevel
		err error
	}
	futures := make(chan chan futureT, 2*c.Workers) // emission window: bounds resident images
	sem := make(chan struct{}, c.Workers)

	go func() {
		defer close(futures)
		for g := 0; g < groups; g++ {
			// One source set per group, shared across its opt levels.
			srcs := make([]string, c.FuncsPerExe)
			for j := range srcs {
				srcs[j] = RandomFunc(fmt.Sprintf("fn_g%d_%d", g, j),
					c.Seed*1_000_003+int64(g)*997+int64(j),
					GenConfig{Stmts: c.Stmts, Calls: true})
			}
			src := strings.Join(srcs, "\n")
			for oi, opt := range c.OptLevels {
				fut := make(chan futureT, 1)
				futures <- fut // blocks while the window is full
				sem <- struct{}{}
				go func(g, oi int, opt tinyc.OptLevel) {
					defer func() { <-sem }()
					name := fmt.Sprintf("g%05d_o%d", g, opt)
					exe, err := buildCampaignExe(name, src, opt, c.Seed*7919+int64(g)*13+int64(oi))
					fut <- futureT{exe: exe, opt: opt, err: err}
				}(g, oi, opt)
			}
		}
	}()

	total := 0
	for fut := range futures {
		r := <-fut
		if r.err != nil {
			// Drain remaining futures so the producer goroutine exits.
			go func() {
				for f := range futures {
					<-f
				}
			}()
			return total, r.err
		}
		if err := emit(r.exe, r.opt); err != nil {
			go func() {
				for f := range futures {
					<-f
				}
			}()
			return total, err
		}
		total += len(r.exe.Truth)
	}
	return total, nil
}

// buildCampaignExe compiles one campaign source set into a stripped
// executable with retained ground truth.
func buildCampaignExe(name, src string, opt tinyc.OptLevel, ctxSeed int64) (Executable, error) {
	img, err := tinyc.Build(src, tinyc.Config{Opt: opt, Seed: ctxSeed})
	if err != nil {
		return Executable{}, fmt.Errorf("corpus: campaign %s: %w", name, err)
	}
	f, err := bin.Read(img)
	if err != nil {
		return Executable{}, err
	}
	truth := make(map[uint32]string)
	for _, s := range f.Symbols {
		if s.IsFunc() {
			truth[s.Value] = s.Name
		}
	}
	stripped, err := bin.Strip(img)
	if err != nil {
		return Executable{}, err
	}
	return Executable{Name: name, Image: stripped, Truth: truth}, nil
}
