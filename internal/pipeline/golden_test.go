package pipeline

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/vfs"
)

// coldGolden pins every artifact of a cold scale-12 run — the bytes of the
// kernel-0 and kernel-1 stripe files under each codec and stripe count, the
// kernel-2 matrix, the rank vector — to hashes recorded on the commit
// before the cold path's hot loops (Kronecker sampler, tsv codec, CSR
// build) were rewritten.  The rewrite's contract is "same bits"; a change
// to any hash here is a change to the benchmark's graph or its files.
var coldGolden = map[string]uint64{
	"csr/tsv/1/k0":          0xb9247971d615e624,
	"csr/tsv/1/k1":          0x00d8193970fd9c31,
	"csr/tsv/4/k0":          0x639dad1d69d75a2d,
	"csr/tsv/4/k1":          0xf2e715b9736425bd,
	"csr/naivetsv/1/k0":     0x6001fbe86782cd6d,
	"csr/naivetsv/1/k1":     0xdf06199aa641e71a,
	"csr/naivetsv/4/k0":     0x4feb2f60d360c163,
	"csr/naivetsv/4/k1":     0xe424e7bf8d297dfd,
	"csr/bin/1/k0":          0x31bf0b88110979ab,
	"csr/bin/1/k1":          0x34195a87443e6438,
	"csr/bin/4/k0":          0x194d8ca2193b35e4,
	"csr/bin/4/k1":          0xcd63383a4977c798,
	"csr/packed/1/k0":       0xc62ee813478b9960,
	"csr/packed/1/k1":       0xb7179d4eb5f44833,
	"csr/packed/4/k0":       0x85f32a79c68c49cd,
	"csr/packed/4/k1":       0x497ae95593e09f95,
	"extsort/tsv/1/k0":      0x48a367e93dfda99c,
	"extsort/tsv/1/k1":      0xe54ccdcf0bd82905,
	"extsort/tsv/4/k0":      0x9a2d8352de0e5863,
	"extsort/tsv/4/k1":      0x1758929300924135,
	"extsort/naivetsv/1/k0": 0x27a3f57da2545349,
	"extsort/naivetsv/1/k1": 0x4fc17fb393128aea,
	"extsort/naivetsv/4/k0": 0xe7f013a60cc39dc7,
	"extsort/naivetsv/4/k1": 0xb29f36f2f8c55fbb,
	"extsort/bin/1/k0":      0x239acafb77f06c33,
	"extsort/bin/1/k1":      0x5eba524d15ebd794,
	"extsort/bin/4/k0":      0x982ddf95e8781468,
	"extsort/bin/4/k1":      0xd8062da6108c9e24,
	"extsort/packed/1/k0":   0xc897252e876869c3,
	"extsort/packed/1/k1":   0x33184880a624babd,
	"extsort/packed/4/k0":   0xcbaeecaf86a67862,
	"extsort/packed/4/k1":   0xc1b30ec6a19d676d,
	// One matrix and one rank vector, whatever the variant, codec and
	// stripe count (DESIGN.md §4).
	"matrix": 0xc756caf5c1c956d4,
	"rank":   0xf879f8765cfb0c6a,
}

func TestColdPathGolden(t *testing.T) {
	check := func(key string, got uint64) {
		t.Helper()
		want, ok := coldGolden[key]
		if !ok {
			t.Fatalf("%s: no golden recorded", key)
		}
		if got != want {
			t.Errorf("%q: %#016x, golden %#016x", key, got, want)
		}
	}
	for _, variant := range []string{"csr", "extsort"} {
		for _, format := range []string{"tsv", "naivetsv", "bin", "packed"} {
			for _, nfiles := range []int{1, 4} {
				fs := vfs.NewMem()
				cfg := Config{Scale: 12, Seed: 1, NFiles: nfiles, Variant: variant, Format: format,
					RunEdges: 5000, FS: fs}.withDefaults()
				v, err := Lookup(variant)
				if err != nil {
					t.Fatal(err)
				}
				run := &Run{Cfg: cfg, FS: fs}
				for k, step := range []func(*Run) error{v.Kernel0, v.Kernel1, v.Kernel2, v.Kernel3} {
					if err := step(run); err != nil {
						t.Fatalf("%s/%s/%d: kernel %d: %v", variant, format, nfiles, k, err)
					}
				}
				key := fmt.Sprintf("%s/%s/%d", variant, format, nfiles)
				check(key+"/k0", hashFiles(t, fs, "k0-"))
				check(key+"/k1", hashFiles(t, fs, "k1-"))

				h := fnv.New64a()
				a := run.Matrix
				binary.Write(h, binary.LittleEndian, int64(a.N))
				binary.Write(h, binary.LittleEndian, a.RowPtr)
				binary.Write(h, binary.LittleEndian, a.Col)
				binary.Write(h, binary.LittleEndian, a.Val) // IEEE bits
				check("matrix", h.Sum64())

				h = fnv.New64a()
				for _, x := range run.Rank.Rank {
					binary.Write(h, binary.LittleEndian, math.Float64bits(x))
				}
				check("rank", h.Sum64())
			}
		}
	}
}

// hashFiles hashes the names and contents of the files of fs whose name
// starts with prefix, in name order.
func hashFiles(t *testing.T, fs vfs.FS, prefix string) uint64 {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	n := 0
	for _, name := range names {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		n++
		r, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(h, name+"\x00")
		if _, err := io.Copy(h, r); err != nil {
			t.Fatal(err)
		}
		r.Close()
	}
	if n == 0 {
		t.Fatalf("no files with prefix %q among %v", prefix, names)
	}
	return h.Sum64()
}
