package edge

import (
	"testing"

	"repro/internal/xrand"
)

func TestAppendAndAt(t *testing.T) {
	l := NewList(4)
	l.Append(1, 2)
	l.Append(3, 4)
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
	if u, v := l.At(0); u != 1 || v != 2 {
		t.Errorf("At(0) = (%d,%d), want (1,2)", u, v)
	}
	if u, v := l.At(1); u != 3 || v != 4 {
		t.Errorf("At(1) = (%d,%d), want (3,4)", u, v)
	}
}

func TestAppendList(t *testing.T) {
	a := NewList(0)
	a.Append(1, 1)
	b := NewList(0)
	b.Append(2, 2)
	b.Append(3, 3)
	a.AppendList(b)
	if a.Len() != 3 {
		t.Fatalf("Len = %d, want 3", a.Len())
	}
	if u, _ := a.At(2); u != 3 {
		t.Errorf("merged list wrong tail")
	}
}

func TestSetSwap(t *testing.T) {
	l := Make(2)
	l.Set(0, 10, 20)
	l.Set(1, 30, 40)
	l.Swap(0, 1)
	if u, v := l.At(0); u != 30 || v != 40 {
		t.Errorf("after swap At(0) = (%d,%d)", u, v)
	}
}

func TestCloneIndependent(t *testing.T) {
	l := NewList(1)
	l.Append(5, 6)
	c := l.Clone()
	c.Set(0, 7, 8)
	if u, _ := l.At(0); u != 5 {
		t.Error("Clone shares storage with original")
	}
}

func TestSliceSharesStorage(t *testing.T) {
	l := Make(4)
	for i := 0; i < 4; i++ {
		l.Set(i, uint64(i), uint64(i))
	}
	s := l.Slice(1, 3)
	if s.Len() != 2 {
		t.Fatalf("slice Len = %d", s.Len())
	}
	s.Set(0, 99, 99)
	if u, _ := l.At(1); u != 99 {
		t.Error("Slice does not alias parent storage")
	}
}

func TestResetKeepsCapacity(t *testing.T) {
	l := NewList(8)
	l.Append(1, 1)
	c := cap(l.U)
	l.Reset()
	if l.Len() != 0 || cap(l.U) != c {
		t.Errorf("Reset: len=%d cap=%d, want 0,%d", l.Len(), cap(l.U), c)
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	g := xrand.New(1)
	l := NewList(100)
	for i := 0; i < 100; i++ {
		l.Append(g.Uint64n(50), g.Uint64n(50))
	}
	orig := l.Clone()
	l.Shuffle(xrand.New(2))
	if !l.SameMultiset(orig) {
		t.Error("Shuffle changed the edge multiset")
	}
	if l.Equal(orig) {
		t.Error("Shuffle of 100 edges left order identical (astronomically unlikely)")
	}
}

func TestIsSorted(t *testing.T) {
	l := NewList(3)
	l.Append(1, 5)
	l.Append(1, 2)
	l.Append(3, 0)
	if !l.IsSortedByU() {
		t.Error("IsSortedByU should hold (1,1,3)")
	}
	if l.IsSortedByUV() {
		t.Error("IsSortedByUV should fail ((1,5) before (1,2))")
	}
	l.Swap(0, 1)
	if !l.IsSortedByUV() {
		t.Error("IsSortedByUV should hold after swap")
	}
}

func TestEqualAndSameMultiset(t *testing.T) {
	a := NewList(2)
	a.Append(1, 2)
	a.Append(3, 4)
	b := NewList(2)
	b.Append(3, 4)
	b.Append(1, 2)
	if a.Equal(b) {
		t.Error("Equal should be order sensitive")
	}
	if !a.SameMultiset(b) {
		t.Error("SameMultiset should be order insensitive")
	}
	b.Set(0, 3, 5)
	if a.SameMultiset(b) {
		t.Error("SameMultiset should detect changed edge")
	}
	c := NewList(1)
	c.Append(1, 2)
	if a.SameMultiset(c) {
		t.Error("SameMultiset should detect length mismatch")
	}
}

func TestSameMultisetWithDuplicates(t *testing.T) {
	a := NewList(3)
	a.Append(1, 1)
	a.Append(1, 1)
	a.Append(2, 2)
	b := NewList(3)
	b.Append(1, 1)
	b.Append(2, 2)
	b.Append(2, 2)
	if a.SameMultiset(b) {
		t.Error("multiset multiplicities not respected")
	}
}
