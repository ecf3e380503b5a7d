package vfs

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
)

// pattern returns n bytes no chunk boundary can hide a shift in.
func pattern(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7+i>>8) ^ salt
	}
	return b
}

func readAll(t *testing.T, r io.Reader) []byte {
	t.Helper()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMemChunkedRoundTrip: a Mem file is a list of chunks of 4 KiB·2^k
// bytes, so sizes at and around the chunk boundaries — and writes and
// reads whose buffers straddle them — are where it could lose or repeat
// a byte.
func TestMemChunkedRoundTrip(t *testing.T) {
	c0, c1, c2 := chunkCap(0), chunkCap(1), chunkCap(2)
	if c0 != 4096 || chunkCap(8) != 1<<20 || chunkCap(40) != 1<<20 {
		t.Fatalf("chunk capacities %d, %d, %d; want 4 KiB doubling to a 1 MiB cap", c0, chunkCap(8), chunkCap(40))
	}
	m := NewMem()
	sizes := []int{0, 1, c0 - 1, c0, c0 + 1, c0 + c1 - 1, c0 + c1, c0 + c1 + 1, c0 + c1 + c2 + 7}
	var total int64
	for i, size := range sizes {
		name := fmt.Sprintf("f%d", i)
		want := pattern(size, byte(i))
		w, err := m.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		// Write in pieces of a length coprime to every chunk size.
		for rest := want; len(rest) > 0; {
			n := min(len(rest), 1001)
			if k, err := w.Write(rest[:n]); k != n || err != nil {
				t.Fatalf("size %d: Write = %d, %v", size, k, err)
			}
			rest = rest[n:]
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		total += int64(size)
		if got, err := m.Size(name); err != nil || got != int64(size) {
			t.Errorf("Size(%s) = %d, %v; want %d", name, got, err, size)
		}
		r, err := m.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		// io.ReadAll reads through a growing buffer; a second pass reads
		// 13 bytes at a time.
		if got := readAll(t, r); !bytes.Equal(got, want) {
			t.Errorf("size %d: read back %d bytes that differ", size, len(got))
		}
		r, _ = m.Open(name)
		var got []byte
		for buf := make([]byte, 13); ; {
			n, err := r.Read(buf)
			got = append(got, buf[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil || n == 0 {
				t.Fatalf("size %d: Read = %d, %v", size, n, err)
			}
		}
		if !bytes.Equal(got, want) {
			t.Errorf("size %d: 13-byte reads differ", size)
		}
	}
	if got := m.TotalBytes(); got != total {
		t.Errorf("TotalBytes = %d, want %d", got, total)
	}

	// Rename moves the chunks, Remove drops them.
	last := fmt.Sprintf("f%d", len(sizes)-1)
	want := pattern(sizes[len(sizes)-1], byte(len(sizes)-1))
	if err := m.Rename(last, "moved"); err != nil {
		t.Fatal(err)
	}
	r, err := m.Open("moved")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readAll(t, r), want) || m.TotalBytes() != total {
		t.Error("Rename changed the content or the footprint")
	}
	if _, err := m.Open(last); err == nil {
		t.Error("old name still opens after Rename")
	}

	// A reader is a snapshot: re-creating the name under it, or removing
	// it, leaves the bytes it was opened on.
	old, err := m.Open("moved")
	if err != nil {
		t.Fatal(err)
	}
	head := make([]byte, c0+5)
	if _, err := io.ReadFull(old, head); err != nil {
		t.Fatal(err)
	}
	w, _ := m.Create("moved")
	w.Write(pattern(3*c0, 0xFF))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("moved"); err != nil {
		t.Fatal(err)
	}
	if got := append(head, readAll(t, old)...); !bytes.Equal(got, want) {
		t.Error("a reader opened before re-Create+Close and Remove lost its bytes")
	}
	if m.TotalBytes() != total-int64(len(want)) {
		t.Errorf("TotalBytes = %d after Remove, want %d", m.TotalBytes(), total-int64(len(want)))
	}
}

// TestMemChunkedConcurrentWriters: writers to distinct names share only
// the store's map, and readers of a published file share its chunks.
func TestMemChunkedConcurrentWriters(t *testing.T) {
	m := NewMem()
	size := chunkCap(0) + chunkCap(1) + 100
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("w%d", g)
			w, err := m.Create(name)
			if err != nil {
				t.Error(err)
				return
			}
			want := pattern(size, byte(g))
			w.Write(want[:size/2])
			w.Write(want[size/2:])
			if err := w.Close(); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 2; i++ {
				r, err := m.Open(name)
				if err != nil {
					t.Error(err)
					return
				}
				if got, err := io.ReadAll(r); err != nil || !bytes.Equal(got, want) {
					t.Errorf("%s: read back differs (%v)", name, err)
				}
			}
		}(g)
	}
	wg.Wait()
	if got, want := m.TotalBytes(), int64(8*size); got != want {
		t.Errorf("TotalBytes = %d, want %d", got, want)
	}
}

// TestMemSmallFilesStaySmall: the first chunk is 4 KiB, so a store of many
// tiny files — checkpoint records, spill runs of a small sort — retains
// kilobytes per file, not a large chunk each.
func TestMemSmallFilesStaySmall(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := NewMem()
	for i := 0; i < 1000; i++ {
		w, _ := m.Create(fmt.Sprintf("small-%d", i))
		w.Write(pattern(100, byte(i)))
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if retained := int64(after.HeapAlloc) - int64(before.HeapAlloc); retained >= 8<<20 {
		t.Errorf("1000 files of 100 B retain %d bytes, want < 8 MiB", retained)
	}
	if m.TotalBytes() != 100*1000 {
		t.Errorf("TotalBytes = %d", m.TotalBytes())
	}
}
