// Package vfs provides the minimal "non-volatile storage" abstraction the
// pipeline kernels write to and read from.
//
// The paper runs on a Lustre parallel filesystem and notes that storage
// caching is unavoidable at the measured scales.  This repository substitutes
// two backends behind one interface: a directory on the local OS filesystem
// (the realistic path) and an in-memory store (deterministic, cache-free,
// used by unit tests and by benchmarks that want to isolate compute from
// disk).  Kernels address files by name only; striping across multiple files
// — the paper's "number of files is a free parameter" — is handled above
// this layer by package fastio.
package vfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// FS is the storage interface used by the pipeline kernels.
type FS interface {
	// Create opens the named file for writing, truncating it if it exists.
	Create(name string) (io.WriteCloser, error)
	// Open opens the named file for reading.
	Open(name string) (io.ReadCloser, error)
	// Remove deletes the named file.  Removing a non-existent file is an
	// error, matching os.Remove.
	Remove(name string) error
	// Rename atomically replaces newname with oldname's content and
	// removes oldname, matching os.Rename: after it returns, newname is
	// either its previous content or oldname's complete content, never a
	// mixture.  It is the commit primitive of the checkpoint layer's
	// two-phase protocol (write to a temp name, then rename into place).
	Rename(oldname, newname string) error
	// List returns the names of all files, sorted lexicographically.
	List() ([]string, error)
	// Size returns the size in bytes of the named file.
	Size(name string) (int64, error)
}

// ErrNotExist is returned by Mem operations on missing files.  The OS
// backend returns the underlying *os.PathError instead; callers should use
// errors.Is(err, os.ErrNotExist), which both satisfy.
var ErrNotExist = os.ErrNotExist

// ---------------------------------------------------------------------------
// In-memory backend

// Mem is an in-memory FS.  It is safe for concurrent use by multiple
// goroutines, including concurrent writers to distinct files (the access
// pattern of the parallel kernel-0 variant).
type Mem struct {
	mu    sync.Mutex
	files map[string]memFile
}

// memFile is a stored file: a list of chunks, each allocated once at its
// final capacity and filled in place — written bytes are never copied to
// a larger buffer.  A published file is immutable, so a reader's snapshot
// of it needs no copy either.
type memFile struct {
	chunks [][]byte
	size   int64
}

// chunkCap is the capacity of a file's k-th chunk, min(4 KiB·2^k, 1 MiB):
// a checkpoint or spill file of a few hundred bytes holds 4 KiB, and a
// large stripe wastes less than its last MiB.
func chunkCap(k int) int {
	if k >= 8 {
		return 1 << 20
	}
	return 4096 << k
}

// NewMem returns an empty in-memory filesystem.
func NewMem() *Mem {
	return &Mem{files: make(map[string]memFile)}
}

type memWriter struct {
	fs     *Mem
	name   string
	f      memFile
	closed bool
}

func (w *memWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, fmt.Errorf("vfs: write to closed file %q", w.name)
	}
	for rest := p; len(rest) > 0; {
		n := len(w.f.chunks)
		if n == 0 || len(w.f.chunks[n-1]) == cap(w.f.chunks[n-1]) {
			w.f.chunks = append(w.f.chunks, make([]byte, 0, chunkCap(n)))
			n++
		}
		tail := &w.f.chunks[n-1]
		k := min(len(rest), cap(*tail)-len(*tail))
		*tail = append(*tail, rest[:k]...) // within capacity: never regrown
		rest = rest[k:]
	}
	w.f.size += int64(len(p))
	return len(p), nil
}

func (w *memWriter) Close() error {
	if w.closed {
		return fmt.Errorf("vfs: double close of %q", w.name)
	}
	w.closed = true
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	w.fs.files[w.name] = w.f
	return nil
}

// Create implements FS.  The file becomes visible to Open only after the
// writer is closed, mirroring the "kernel completes before the next begins"
// pipeline rule.
func (m *Mem) Create(name string) (io.WriteCloser, error) {
	if name == "" {
		return nil, errors.New("vfs: empty file name")
	}
	return &memWriter{fs: m, name: name}, nil
}

// memReader reads a snapshot of a file's chunk list.
type memReader struct {
	chunks [][]byte
	off    int // bytes of chunks[0] already read
}

func (r *memReader) Read(p []byte) (n int, err error) {
	for n < len(p) && len(r.chunks) > 0 {
		k := copy(p[n:], r.chunks[0][r.off:])
		n, r.off = n+k, r.off+k
		if r.off == len(r.chunks[0]) {
			r.chunks, r.off = r.chunks[1:], 0
		}
	}
	if n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return n, nil
}

func (r *memReader) Close() error { return nil }

// Open implements FS.  The reader holds the file as it was published:
// re-creating or removing the name afterwards does not disturb it.
func (m *Mem) Open(name string) (io.ReadCloser, error) {
	m.mu.Lock()
	f, ok := m.files[name]
	m.mu.Unlock()
	if !ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: ErrNotExist}
	}
	return &memReader{chunks: f.chunks}, nil
}

// Remove implements FS.
func (m *Mem) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

// Rename implements FS.  The swap happens under the store's lock, so a
// concurrent Open observes either the old content of newname or the
// complete new content — the atomicity the checkpoint commit relies on.
func (m *Mem) Rename(oldname, newname string) error {
	if newname == "" {
		return errors.New("vfs: empty file name")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[oldname]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldname, Err: ErrNotExist}
	}
	m.files[newname] = data
	delete(m.files, oldname)
	return nil
}

// List implements FS.
func (m *Mem) List() ([]string, error) {
	m.mu.Lock()
	names := make([]string, 0, len(m.files))
	for n := range m.files {
		names = append(names, n)
	}
	m.mu.Unlock()
	sort.Strings(names)
	return names, nil
}

// Size implements FS.
func (m *Mem) Size(name string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return 0, &os.PathError{Op: "stat", Path: name, Err: ErrNotExist}
	}
	return f.size, nil
}

// TotalBytes returns the sum of all file sizes, useful for asserting the
// storage footprint in tests.
func (m *Mem) TotalBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for _, f := range m.files {
		n += f.size
	}
	return n
}

// ---------------------------------------------------------------------------
// OS-directory backend

// Dir is an FS rooted at a directory on the operating-system filesystem.
// File names must be relative and must not escape the root.
type Dir struct {
	root string
}

// NewDir returns an FS rooted at root, creating the directory if needed.
func NewDir(root string) (*Dir, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("vfs: creating root: %w", err)
	}
	return &Dir{root: root}, nil
}

func (d *Dir) resolve(name string) (string, error) {
	if name == "" {
		return "", errors.New("vfs: empty file name")
	}
	clean := filepath.Clean(name)
	if filepath.IsAbs(clean) || strings.HasPrefix(clean, "..") {
		return "", fmt.Errorf("vfs: name %q escapes the filesystem root", name)
	}
	return filepath.Join(d.root, clean), nil
}

// Create implements FS.
func (d *Dir) Create(name string) (io.WriteCloser, error) {
	p, err := d.resolve(name)
	if err != nil {
		return nil, err
	}
	if dir := filepath.Dir(p); dir != d.root {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return os.Create(p)
}

// Open implements FS.
func (d *Dir) Open(name string) (io.ReadCloser, error) {
	p, err := d.resolve(name)
	if err != nil {
		return nil, err
	}
	return os.Open(p)
}

// Remove implements FS.
func (d *Dir) Remove(name string) error {
	p, err := d.resolve(name)
	if err != nil {
		return err
	}
	return os.Remove(p)
}

// Rename implements FS via os.Rename, which is atomic on POSIX
// filesystems — the property the checkpoint layer's commit depends on.
func (d *Dir) Rename(oldname, newname string) error {
	op, err := d.resolve(oldname)
	if err != nil {
		return err
	}
	np, err := d.resolve(newname)
	if err != nil {
		return err
	}
	if dir := filepath.Dir(np); dir != d.root {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.Rename(op, np)
}

// List implements FS.  Names are reported relative to the root, using
// forward slashes, sorted lexicographically.
func (d *Dir) List() ([]string, error) {
	var names []string
	err := filepath.Walk(d.root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			return nil
		}
		rel, err := filepath.Rel(d.root, path)
		if err != nil {
			return err
		}
		names = append(names, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}

// Size implements FS.
func (d *Dir) Size(name string) (int64, error) {
	p, err := d.resolve(name)
	if err != nil {
		return 0, err
	}
	info, err := os.Stat(p)
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// Interface conformance checks.
var (
	_ FS = (*Mem)(nil)
	_ FS = (*Dir)(nil)
)
