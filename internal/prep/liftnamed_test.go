package prep_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bin"
	"repro/internal/corpus"
	"repro/internal/prep"
	"repro/internal/tinyc"
)

// campaignImage compiles a campaign-style source group (the generator
// and compiler settings of corpus.RunCampaign) at one opt level.
func campaignImage(t *testing.T, opt tinyc.OptLevel, stripped bool) []byte {
	t.Helper()
	srcs := make([]string, 12)
	for j := range srcs {
		srcs[j] = corpus.RandomFunc(fmt.Sprintf("fn_g0_%d", j), 1_000_003+int64(j),
			corpus.GenConfig{Stmts: 10, Calls: true})
	}
	img, err := tinyc.Build(strings.Join(srcs, "\n"), tinyc.Config{Opt: opt, Seed: 7919 + int64(opt)})
	if err != nil {
		t.Fatal(err)
	}
	if stripped {
		if img, err = bin.Strip(img); err != nil {
			t.Fatal(err)
		}
	}
	return img
}

// TestLiftNamedEqualsLiftImage: lifting one function by name yields
// exactly the element LiftImage returns for it, for every function of
// stripped and unstripped images at every opt level.
func TestLiftNamedEqualsLiftImage(t *testing.T) {
	for _, opt := range []tinyc.OptLevel{tinyc.O0, tinyc.O1, tinyc.O2} {
		for _, stripped := range []bool{false, true} {
			img := campaignImage(t, opt, stripped)
			all, err := prep.LiftImage(img)
			if err != nil {
				t.Fatal(err)
			}
			if len(all) < 12 {
				t.Fatalf("O%d stripped=%v: lifted %d functions, want >= 12", opt, stripped, len(all))
			}
			seen := map[string]bool{}
			for _, want := range all {
				if seen[want.Name] {
					continue // LiftNamed answers the first of a name
				}
				seen[want.Name] = true
				got, err := prep.LiftNamed(img, want.Name)
				if err != nil {
					t.Fatalf("O%d stripped=%v %s: %v", opt, stripped, want.Name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("O%d stripped=%v %s: LiftNamed differs from LiftImage's element", opt, stripped, want.Name)
				}
			}
		}
	}
}

// TestLiftNamedErrorSurface: only the named function is decoded, so
// undecodable bytes elsewhere fail LiftImage but not LiftNamed; a name
// the image lacks is ErrNoFunction and a malformed ELF is not.
func TestLiftNamedErrorSurface(t *testing.T) {
	img := campaignImage(t, tinyc.O1, true)
	f, err := bin.Read(img)
	if err != nil {
		t.Fatal(err)
	}
	images, err := f.Functions()
	if err != nil {
		t.Fatal(err)
	}
	victim, other := images[len(images)/2], images[0]
	want, err := prep.LiftNamed(img, other.Name)
	if err != nil {
		t.Fatal(err)
	}

	// Overwrite the victim's last byte with hlt, which the decoder rejects.
	at := bytes.Index(img, victim.Code)
	if at < 0 || bytes.Contains(img[at+1:], victim.Code) {
		t.Fatalf("cannot place %s's code in the image", victim.Name)
	}
	bad := bytes.Clone(img)
	bad[at+len(victim.Code)-1] = 0xF4

	if _, err := prep.LiftImage(bad); err == nil {
		t.Fatal("LiftImage accepted the corrupted image")
	}
	if _, err := prep.LiftNamed(bad, victim.Name); err == nil || errors.Is(err, prep.ErrNoFunction) {
		t.Errorf("LiftNamed(corrupted function) = %v, want a decode error", err)
	}
	got, err := prep.LiftNamed(bad, other.Name)
	if err != nil {
		t.Fatalf("LiftNamed(intact function of a corrupted image): %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("the intact function lifts differently once another is corrupted")
	}

	if _, err := prep.LiftNamed(img, "no_such_fn"); !errors.Is(err, prep.ErrNoFunction) {
		t.Errorf("unknown name: %v, want ErrNoFunction", err)
	}
	if _, err := prep.LiftNamed(img[:40], other.Name); err == nil || errors.Is(err, prep.ErrNoFunction) {
		t.Errorf("truncated ELF: %v, want a parse error", err)
	}
}
