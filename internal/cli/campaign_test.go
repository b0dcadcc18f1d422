package cli

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/minhash"
	"repro/internal/tinyc"
)

func TestMkcorpusCampaignWithIndex(t *testing.T) {
	dir := t.TempDir()
	idxPath := filepath.Join(dir, "scale.db")
	out, err := run(t, "mkcorpus", "-dir", dir, "-scale", "60", "-funcs-per-exe", "4",
		"-stmts", "5", "-opt-levels", "0,2", "-seed", "9", "-index", idxPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "campaign done:") || !strings.Contains(out, "TRACYIDX v4") {
		t.Errorf("campaign output: %s", out)
	}
	// The streamed index must be a loadable v4 file with sane contents.
	info, err := run(t, "idxinfo", "-verify", idxPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(info, "TRACYIDX v4") || !strings.Contains(info, "checksums: all sections OK") {
		t.Errorf("idxinfo over campaign index: %s", info)
	}
	// Manifest records the campaign parameters and the index format.
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m corpus.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Campaign == nil || m.Campaign.Funcs != 60 || m.Campaign.Seed != 9 {
		t.Errorf("manifest campaign record = %+v", m.Campaign)
	}
	if m.Index == nil || m.Index.Format != 4 || m.Index.Functions == 0 {
		t.Errorf("manifest index record = %+v", m.Index)
	}
	if len(m.Exes) == 0 || m.Exes[1].Opt != 2 {
		t.Errorf("manifest exes lack opt levels: %+v", m.Exes[:min(2, len(m.Exes))])
	}
	// Default campaign mode with -index writes no .bin files.
	ents, _ := filepath.Glob(filepath.Join(dir, "*.bin"))
	if len(ents) != 0 {
		t.Errorf("campaign with -index wrote %d .bin files, want 0", len(ents))
	}
	// The index answers queries: search it with a fresh single-exe build.
	exe := buildExe(t, dir, "q.bin", srcA, 3)
	if _, err := run(t, "search", "-db", idxPath, "-exe", exe, "-top", "2"); err != nil {
		t.Fatalf("search over campaign index: %v", err)
	}
}

// TestMkcorpusIndexEqualsAddImage holds the index tracy mkcorpus -index
// -lsh streams to the one a database writes of the same campaign: each
// executable added with AddImage under its name and truth, then Save with
// the default lsh sections. The two fill one index.Stream from different
// callers, so they must write the same bytes.
func TestMkcorpusIndexEqualsAddImage(t *testing.T) {
	dir := t.TempDir()
	idxPath := filepath.Join(dir, "scale.idx")
	if _, err := run(t, "mkcorpus", "-dir", dir, "-scale", "96", "-seed", "9", "-index", idxPath, "-lsh"); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	db := index.New()
	_, err = corpus.RunCampaign(corpus.CampaignConfig{Seed: 9, Funcs: 96},
		func(e corpus.Executable, _ tinyc.OptLevel) error { return db.AddImage(e.Name, e.Image, e.Truth) })
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := db.Save(&want, index.SaveOptions{LSH: &minhash.Default}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("mkcorpus -index -lsh wrote %d bytes unlike the %d AddImage and Save write of the same campaign", len(got), want.Len())
	}
}

func TestMkcorpusCampaignBinsOnly(t *testing.T) {
	dir := t.TempDir()
	out, err := run(t, "mkcorpus", "-dir", dir, "-scale", "16", "-funcs-per-exe", "4",
		"-stmts", "4", "-opt-levels", "1", "-seed", "2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "campaign done:") {
		t.Errorf("campaign output: %s", out)
	}
	ents, _ := filepath.Glob(filepath.Join(dir, "*.bin"))
	if len(ents) == 0 {
		t.Error("campaign without -index wrote no .bin files")
	}
}

func TestMkcorpusClassicWithIndex(t *testing.T) {
	dir := t.TempDir()
	idxPath := filepath.Join(dir, "demo.db")
	out, err := run(t, "mkcorpus", "-dir", dir, "-contexts", "1", "-versions", "1",
		"-noise", "1", "-funcs", "2", "-index", idxPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "wrote index") {
		t.Errorf("mkcorpus -index output: %s", out)
	}
	var m corpus.Manifest
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.Index == nil || m.Index.Format != 4 {
		t.Errorf("classic manifest index record = %+v", m.Index)
	}
	if m.Campaign != nil {
		t.Errorf("classic manifest has campaign record: %+v", m.Campaign)
	}
	if _, err := run(t, "stats", "-db", idxPath); err != nil {
		t.Fatalf("stats over classic -index output: %v", err)
	}
}

func TestMkcorpusBadOptLevels(t *testing.T) {
	if _, err := run(t, "mkcorpus", "-dir", t.TempDir(), "-scale", "8", "-opt-levels", "0,9"); err == nil {
		t.Error("mkcorpus accepted opt level 9")
	}
	if _, err := run(t, "mkcorpus", "-dir", t.TempDir(), "-scale", "8", "-opt-levels", "x"); err == nil {
		t.Error("mkcorpus accepted non-numeric opt level")
	}
}
