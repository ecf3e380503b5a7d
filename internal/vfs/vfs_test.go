package vfs

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"sync"
	"testing"
)

// backends returns one of each FS implementation for table-driven tests.
func backends(t *testing.T) map[string]FS {
	t.Helper()
	dir, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]FS{"mem": NewMem(), "dir": dir}
}

func writeFile(t *testing.T, fs FS, name, content string) {
	t.Helper()
	w, err := fs.Create(name)
	if err != nil {
		t.Fatalf("Create(%q): %v", name, err)
	}
	if _, err := io.WriteString(w, content); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func readFile(t *testing.T, fs FS, name string) string {
	t.Helper()
	r, err := fs.Open(name)
	if err != nil {
		t.Fatalf("Open(%q): %v", name, err)
	}
	defer r.Close()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	return string(b)
}

func TestRoundTrip(t *testing.T) {
	bks := backends(t)
	for _, name := range slices.Sorted(maps.Keys(bks)) {
		fs := bks[name]
		t.Run(name, func(t *testing.T) {
			writeFile(t, fs, "a.tsv", "1\t2\n")
			if got := readFile(t, fs, "a.tsv"); got != "1\t2\n" {
				t.Errorf("read back %q", got)
			}
		})
	}
}

func TestCreateTruncates(t *testing.T) {
	bks := backends(t)
	for _, name := range slices.Sorted(maps.Keys(bks)) {
		fs := bks[name]
		t.Run(name, func(t *testing.T) {
			writeFile(t, fs, "f", "long old contents")
			writeFile(t, fs, "f", "new")
			if got := readFile(t, fs, "f"); got != "new" {
				t.Errorf("after truncating rewrite, read %q", got)
			}
		})
	}
}

func TestOpenMissing(t *testing.T) {
	bks := backends(t)
	for _, name := range slices.Sorted(maps.Keys(bks)) {
		fs := bks[name]
		t.Run(name, func(t *testing.T) {
			if _, err := fs.Open("nope"); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("Open missing: err = %v, want ErrNotExist", err)
			}
		})
	}
}

func TestRemove(t *testing.T) {
	bks := backends(t)
	for _, name := range slices.Sorted(maps.Keys(bks)) {
		fs := bks[name]
		t.Run(name, func(t *testing.T) {
			writeFile(t, fs, "x", "data")
			if err := fs.Remove("x"); err != nil {
				t.Fatalf("Remove: %v", err)
			}
			if _, err := fs.Open("x"); !errors.Is(err, os.ErrNotExist) {
				t.Error("file still readable after Remove")
			}
			if err := fs.Remove("x"); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("double Remove err = %v, want ErrNotExist", err)
			}
		})
	}
}

func TestListSorted(t *testing.T) {
	bks := backends(t)
	for _, name := range slices.Sorted(maps.Keys(bks)) {
		fs := bks[name]
		t.Run(name, func(t *testing.T) {
			for _, f := range []string{"b", "a", "c"} {
				writeFile(t, fs, f, f)
			}
			names, err := fs.List()
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"a", "b", "c"}
			if len(names) != 3 {
				t.Fatalf("List = %v", names)
			}
			for i := range want {
				if names[i] != want[i] {
					t.Fatalf("List = %v, want %v", names, want)
				}
			}
		})
	}
}

func TestSize(t *testing.T) {
	bks := backends(t)
	for _, name := range slices.Sorted(maps.Keys(bks)) {
		fs := bks[name]
		t.Run(name, func(t *testing.T) {
			writeFile(t, fs, "s", "12345")
			n, err := fs.Size("s")
			if err != nil {
				t.Fatal(err)
			}
			if n != 5 {
				t.Errorf("Size = %d, want 5", n)
			}
			if _, err := fs.Size("missing"); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("Size missing err = %v", err)
			}
		})
	}
}

func TestSubdirectoryNames(t *testing.T) {
	bks := backends(t)
	for _, name := range slices.Sorted(maps.Keys(bks)) {
		fs := bks[name]
		t.Run(name, func(t *testing.T) {
			writeFile(t, fs, "k0/part-0.tsv", "0\t0\n")
			if got := readFile(t, fs, "k0/part-0.tsv"); got != "0\t0\n" {
				t.Errorf("read back %q", got)
			}
			names, err := fs.List()
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != 1 || names[0] != "k0/part-0.tsv" {
				t.Errorf("List = %v", names)
			}
		})
	}
}

func TestDirRejectsEscapes(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"../evil", "/abs", "a/../../b", ""} {
		if _, err := d.Create(bad); err == nil {
			t.Errorf("Create(%q) unexpectedly succeeded", bad)
		}
	}
}

func TestMemEmptyName(t *testing.T) {
	if _, err := NewMem().Create(""); err == nil {
		t.Error("Create(\"\") should fail")
	}
}

func TestMemVisibilityAfterClose(t *testing.T) {
	m := NewMem()
	w, err := m.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(w, "hello")
	if _, err := m.Open("f"); !errors.Is(err, os.ErrNotExist) {
		t.Error("file visible before Close")
	}
	w.Close()
	if got := readFile(t, m, "f"); got != "hello" {
		t.Errorf("after Close read %q", got)
	}
}

func TestMemDoubleCloseAndWriteAfterClose(t *testing.T) {
	m := NewMem()
	w, _ := m.Create("f")
	w.Close()
	if err := w.Close(); err == nil {
		t.Error("double Close should error")
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Error("Write after Close should error")
	}
}

func TestMemConcurrentWriters(t *testing.T) {
	m := NewMem()
	var wg sync.WaitGroup
	const workers = 8
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("part-%d", i)
			w, err := m.Create(name)
			if err != nil {
				t.Errorf("Create: %v", err)
				return
			}
			for j := 0; j < 100; j++ {
				fmt.Fprintf(w, "%d\t%d\n", i, j)
			}
			w.Close()
		}(i)
	}
	wg.Wait()
	names, _ := m.List()
	if len(names) != workers {
		t.Fatalf("got %d files, want %d", len(names), workers)
	}
	if m.TotalBytes() == 0 {
		t.Error("TotalBytes = 0")
	}
}

func TestRename(t *testing.T) {
	dir, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bks := map[string]FS{"mem": NewMem(), "dir": dir}
	for _, name := range slices.Sorted(maps.Keys(bks)) {
		fs := bks[name]
		t.Run(name, func(t *testing.T) {
			w, _ := fs.Create("a.tmp")
			io.WriteString(w, "payload")
			w.Close()
			if err := fs.Rename("a.tmp", "a"); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Open("a.tmp"); !errors.Is(err, ErrNotExist) {
				t.Errorf("old name still opens: %v", err)
			}
			r, err := fs.Open("a")
			if err != nil {
				t.Fatal(err)
			}
			b, _ := io.ReadAll(r)
			r.Close()
			if string(b) != "payload" {
				t.Errorf("content = %q", b)
			}
			// Rename onto an existing name replaces it.
			w, _ = fs.Create("b.tmp")
			io.WriteString(w, "new")
			w.Close()
			if err := fs.Rename("b.tmp", "a"); err != nil {
				t.Fatal(err)
			}
			r, _ = fs.Open("a")
			b, _ = io.ReadAll(r)
			r.Close()
			if string(b) != "new" {
				t.Errorf("replaced content = %q", b)
			}
			// Missing source is an error.
			if err := fs.Rename("missing", "x"); !errors.Is(err, ErrNotExist) {
				t.Errorf("rename of missing file: %v", err)
			}
		})
	}
}

func TestMeteredRenameForwards(t *testing.T) {
	mem := NewMem()
	m := NewMetered(mem)
	w, _ := m.Create("t")
	io.WriteString(w, "xy")
	w.Close()
	before := m.Stats()
	if err := m.Rename("t", "u"); err != nil {
		t.Fatal(err)
	}
	if after := m.Stats(); after != before {
		t.Errorf("rename changed counters: %+v -> %+v", before, after)
	}
	if _, err := mem.Open("u"); err != nil {
		t.Errorf("rename did not reach inner FS: %v", err)
	}
}
