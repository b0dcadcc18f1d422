package core

import (
	"context"
	"reflect"
	"testing"
)

// TestCompareCtxBackgroundIdentical: the Ctx entry points with a
// background context must be bit-identical to Compare — this is the
// compatibility contract the whole cancellation refactor rests on.
func TestCompareCtxBackgroundIdentical(t *testing.T) {
	ref := Decompose(liftListing(t, "a", srcA), 3)
	tgt := Decompose(liftListing(t, "b", srcARenamed), 3)
	m := NewMatcher(DefaultOptions())

	want := m.Compare(ref, tgt)
	got, err := m.CompareCtx(context.Background(), ref, tgt)
	if err != nil {
		t.Fatalf("CompareCtx(Background) error: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("CompareCtx(Background) = %+v, want %+v", got, want)
	}

	wantMany := []Result{m.Compare(ref, tgt), m.Compare(ref, ref)}
	gotMany, err := compareEach(context.Background(), m, ref, []*Decomposed{tgt, ref})
	if err != nil {
		t.Fatalf("CompareEachCtx(Background) error: %v", err)
	}
	if !reflect.DeepEqual(gotMany, wantMany) {
		t.Errorf("CompareEachCtx(Background) = %+v, want %+v", gotMany, wantMany)
	}
}

// TestCompareCtxCancelled: a context cancelled before the call returns
// context.Canceled (and a truncated result) rather than running the
// full comparison.
func TestCompareCtxCancelled(t *testing.T) {
	ref := Decompose(liftListing(t, "a", srcA), 3)
	tgt := Decompose(liftListing(t, "b", srcARenamed), 3)
	m := NewMatcher(DefaultOptions())

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := m.CompareCtx(ctx, ref, tgt)
	if err != context.Canceled {
		t.Fatalf("CompareCtx(cancelled) err = %v, want context.Canceled", err)
	}
	if !res.Truncated {
		t.Error("cancelled Compare result not marked Truncated")
	}

	if _, err := compareEach(ctx, m, ref, []*Decomposed{tgt, ref}); err != context.Canceled {
		t.Fatalf("CompareEachCtx(cancelled) err = %v, want context.Canceled", err)
	}
}

// TestCompareCtxNilContext: a nil context is treated as Background, not
// a panic.
func TestCompareCtxNilContext(t *testing.T) {
	ref := Decompose(liftListing(t, "a", srcA), 3)
	m := NewMatcher(DefaultOptions())
	//nolint:staticcheck // deliberately exercising the nil-ctx guard
	if _, err := m.CompareCtx(nil, ref, ref); err != nil {
		t.Fatalf("CompareCtx(nil) error: %v", err)
	}
	//nolint:staticcheck
	if _, err := compareEach(nil, m, ref, []*Decomposed{ref}); err != nil {
		t.Fatalf("CompareEachCtx(nil) error: %v", err)
	}
}
