package fastio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/edge"
	"repro/internal/vfs"
)

// FuzzCodecDecode feeds arbitrary bytes, as one stripe, to every codec in
// Codecs(), and an edge (u, v) to its writer.  Every row checks that no
// decode panics; that the striped decode (a StripedSource) decodes the same
// edges as the codec's bare reader over the same bytes, fails exactly when
// it does, and names the stripe in its error; that the whole-list reader
// at widths 1, 2 and 3, and a StripedSource, in pieces of fuzzBlock bytes,
// decode the same edges and fail with the same error text; that a clean
// decode, and
// (u, v), round-trip through the codec's writer; and that ReadStriped's
// list has room for no more than twice the edges it holds (plus 64), so no
// header or record can steer it into a large reservation.  Each row then
// holds its codec to the codec's own oracle (codecOracles).
func FuzzCodecDecode(f *testing.F) { fuzzDecode(f, Codecs()...) }

// FuzzTSVDecode, FuzzBinaryDecode and FuzzPackedDecode are FuzzCodecDecode
// with one row each: the same seeds and checks, the whole fuzzing budget on
// one decoder.
func FuzzTSVDecode(f *testing.F)    { fuzzDecode(f, TSV{}) }
func FuzzBinaryDecode(f *testing.F) { fuzzDecode(f, Binary{}) }
func FuzzPackedDecode(f *testing.F) { fuzzDecode(f, Packed{}) }

// fuzzBlock is the piece size of the fuzzed whole-list reads: the seeds
// span many pieces, and tsv records and packed blocks straddle them.
const fuzzBlock = 16

// codecOracles holds each codec's own check of a stripe's decode: got and
// err are what a StripedSource read from data (err nil for a clean end),
// and u, v the fuzzed edge.  naivetsv is tsv's oracle.
var codecOracles = map[string]func(t *testing.T, data []byte, got *edge.List, err error, u, v uint64){
	"tsv":    tsvOracle,
	"bin":    binOracle,
	"packed": packedOracle,
}

func fuzzDecode(f *testing.F, codecs ...Codec) {
	// tsv: records, CRLFs, every malformed case, each side of every digit count.
	f.Add([]byte("1\t2\n3\t4"), uint64(0), uint64(1<<64-1))
	f.Add([]byte("1\t2\r\n3\t4\r\n"), uint64(10), uint64(99))
	f.Add([]byte("1\t2\r\n3\t4"), uint64(10), uint64(99))
	f.Add([]byte(strings.Repeat("0", 40)+"7\t"+strings.Repeat("0", 30)+"8\r\n1\t2\n"), uint64(7), uint64(8))
	f.Add([]byte("1\t2\n"+strings.Repeat("9", 30)+"\t1\n"), uint64(1), uint64(2))
	f.Add([]byte(strings.Repeat("65535\t4096\n", 2000)), uint64(100), uint64(12345678901234567890))
	for _, c := range tsvErrorCases {
		f.Add([]byte(c.input), uint64(len(c.input)), uint64(c.line))
	}
	for _, p := range powersOf10 {
		f.Add([]byte(fmt.Sprintf("%d\t%d\n%d\t%d\n", p-1, p, p, p-1)), p-1, p)
	}
	// bin: empty, one record, a torn second record, 5 records and a torn one.
	f.Add([]byte{}, uint64(0), uint64(0))
	f.Add(make([]byte, 16), uint64(0), uint64(0))
	f.Add(make([]byte, 20), uint64(0), uint64(0))
	f.Add(bytes.Repeat([]byte{0xff}, 5*16+15), uint64(0), uint64(0))
	// packed: the magic alone, a 300-edge stream, a block too short for its count.
	f.Add([]byte(packedMagic), uint64(0), uint64(0))
	l := edge.NewList(300)
	for i := range uint64(300) {
		l.Append(i/7, i*997)
	}
	f.Add(encode(f, Packed{}, l, l.Len()), uint64(0), uint64(0))
	f.Add(append([]byte(packedMagic), 0x01, 0x02, 0x00, 0x00), uint64(0), uint64(0))

	f.Fuzz(func(t *testing.T, data []byte, u, v uint64) {
		for _, c := range codecs {
			fs := vfs.NewMem()
			w, _ := fs.Create(StripeName("f", c, 0))
			w.Write(data)
			w.Close()

			src, err := NewStripedSource(fs, "f", c)
			if err != nil {
				t.Fatal(err)
			}
			got, gerr := drain(t, src, 1000)
			src.Close()
			want, werr := drain(t, c.NewReader(bytes.NewReader(data)), 1000)
			if !got.Equal(want) || (gerr == nil) != (werr == nil) {
				t.Fatalf("%s: stripe: %d edges, %v; bare reader: %d edges, %v", c.Name(), got.Len(), gerr, want.Len(), werr)
			}
			if stripe := StripeName("f", c, 0); gerr != nil && !strings.Contains(gerr.Error(), stripe) {
				t.Fatalf("%s: error %v does not name %s", c.Name(), gerr, stripe)
			}
			for _, workers := range []int{1, 2, 3} {
				l, err := readStriped(fs, "f", c, nil, workers, fuzzBlock)
				if gerr != nil && (err == nil || err.Error() != gerr.Error()) || gerr == nil && (err != nil || !l.Equal(got)) {
					t.Fatalf("%s: whole list at %d workers: %v; stripe: %d edges, %v", c.Name(), workers, err, got.Len(), gerr)
				}
			}
			small := &StripedSource{in: newPieceReader(fs, c, []string{StripeName("f", c, 0)}, fuzzBlock)}
			l, err := drain(t, small, 7)
			small.Close()
			if !l.Equal(got) || (err == nil) != (gerr == nil) || err != nil && err.Error() != gerr.Error() {
				t.Fatalf("%s: stripe in %d-byte pieces: %d edges, %v; in %d-byte pieces: %d edges, %v",
					c.Name(), fuzzBlock, l.Len(), err, streamBlock, got.Len(), gerr)
			}
			if gerr == nil {
				l, err := ReadStriped(fs, "f", c)
				if err != nil || !l.Equal(got) {
					t.Fatalf("%s: ReadStriped: %v", c.Name(), err)
				}
				if cap(l.U) > 2*l.Len()+64 {
					t.Fatalf("%s: ReadStriped holds room for %d edges after %d edges in %d bytes",
						c.Name(), cap(l.U), l.Len(), len(data))
				}
				if back, err := drain(t, c.NewReader(bytes.NewReader(encode(t, c, got, got.Len()))), 4096); err != nil || !back.Equal(got) {
					t.Fatalf("%s: a clean decode of %d edges does not round-trip: %v", c.Name(), got.Len(), err)
				}
			}
			one := edge.NewList(1)
			one.Append(u, v)
			if back, err := drain(t, c.NewReader(bytes.NewReader(encode(t, c, one, 1))), 1); err != nil || !back.Equal(one) {
				t.Fatalf("%s: (%d, %d) does not round-trip: %v", c.Name(), u, v, err)
			}
			if oracle := codecOracles[c.Name()]; oracle != nil {
				oracle(t, data, got, gerr, u, v)
			}
		}
	})
}

// tsvOracle holds the tsv codec to NaiveTSV (bufio.Scanner + strconv): the
// writer formats (u, v) to the same bytes, and on any input the tsv reader
// (in 16-byte blocks too) and the stripe decode decode the same edges as
// the naive reader and then either both end cleanly or both fail.
func tsvOracle(t *testing.T, data []byte, striped *edge.List, stripedErr error, u, v uint64) {
	one := edge.NewList(1)
	one.Append(u, v)
	if fast, naive := encode(t, TSV{}, one, 1), encode(t, NaiveTSV{}, one, 1); !bytes.Equal(fast, naive) {
		t.Fatalf("the tsv writer wrote %q for (%d, %d), NaiveTSV %q", fast, u, v, naive)
	}
	if len(data) > 0 && data[len(data)-1] == '\r' {
		// The one documented difference: bufio.ScanLines drops a CR at the
		// very end of input; the scanner wants its LF.
		return
	}
	want, wantErr := drain(t, NaiveTSV{}.NewReader(bytes.NewReader(data)), 4096)
	if !striped.Equal(want) || (stripedErr == nil) != (wantErr == nil) {
		t.Fatalf("stripe: %d edges, %v; oracle: %d edges, %v", striped.Len(), stripedErr, want.Len(), wantErr)
	}
	for _, size := range []int{16, decodeBlock} {
		got, gotErr := decodeTSV(bytes.NewReader(data), size)
		if !got.Equal(want) || (gotErr == "") != (wantErr == nil) {
			t.Fatalf("buffer %d: %d edges, error %q; oracle: %d edges, %v", size, got.Len(), gotErr, want.Len(), wantErr)
		}
	}
}

// binOracle: a bin stripe decodes to exactly its len/16 whole records, as
// little-endian words, and a trailing partial record is a truncation error
// that names the stripe.
func binOracle(t *testing.T, data []byte, got *edge.List, err error, _, _ uint64) {
	want := edge.NewList(0)
	for i := 0; i+16 <= len(data); i += 16 {
		want.Append(binary.LittleEndian.Uint64(data[i:]), binary.LittleEndian.Uint64(data[i+8:]))
	}
	if len(data)%16 == 0 && err != nil {
		t.Fatalf("%d bytes: %v", len(data), err)
	}
	if len(data)%16 != 0 && (!errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "f-0000.bin")) {
		t.Fatalf("%d bytes: error %v, want a truncation that names the stripe", len(data), err)
	}
	if !got.Equal(want) {
		t.Fatalf("%d edges, want %d", got.Len(), want.Len())
	}
}

// packedOracle walks DESIGN.md §9's Packed grammar over data by itself:
// the magic, then blocks of a uvarint count and payload length, in range,
// each payload count pairs of a zigzag u delta, from 0 in every block, and
// a uvarint v, which fill it exactly.  The stripe decode must give the
// edges of the blocks before the first violation, and of a block's edges
// those before a varint that runs past its payload or overflows (all of
// them when bytes are left over), and fail exactly when there is one.
func packedOracle(t *testing.T, data []byte, got *edge.List, err error, _, _ uint64) {
	uvarint := func(b []byte) (x uint64, n int) { // n = 0: b ends inside it or it overflows
		for i, c := range b {
			if i == 9 && c > 1 {
				return 0, 0
			}
			if x |= uint64(c&0x7f) << (7 * i); c < 0x80 {
				return x, i + 1
			}
		}
		return 0, 0
	}
	want, bad := edge.NewList(0), len(data) > 0 && !bytes.HasPrefix(data, []byte(packedMagic))
	for b := data[min(len(data), len(packedMagic)):]; !bad && len(b) > 0; {
		count, k := uvarint(b)
		plen, k2 := uvarint(b[k:])
		if bad = k == 0 || k2 == 0 || count < 1 || count > 4096 || plen < 2*count || plen > 20*count ||
			plen > uint64(len(b)-k-k2); bad {
			break
		}
		payload := b[k+k2 : k+k2+int(plen)]
		b = b[k+k2+int(plen):]
		var u uint64
		for range count {
			d, n := uvarint(payload)
			v, m := uvarint(payload[n:])
			if bad = n == 0 || m == 0; bad {
				break
			}
			u += d>>1 ^ -(d & 1) // zigzag: the wrapping difference from the last u
			want.Append(u, v)
			payload = payload[n+m:]
		}
		bad = bad || len(payload) > 0
	}
	if !got.Equal(want) || (err != nil) != bad {
		t.Fatalf("%d bytes: %d edges, %v; the grammar gives %d edges, failing %v", len(data), got.Len(), err, want.Len(), bad)
	}
}
