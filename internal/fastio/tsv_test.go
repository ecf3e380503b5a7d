package fastio

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/edge"
	"repro/internal/vfs"
)

// decodeTSV decodes all of input through a TSVReader with the given buffer
// size, returning the edges read before the stream ended and how it ended
// ("" for a clean end).
func decodeTSV(r io.Reader, bufSize int) (*edge.List, string) {
	l := edge.NewList(0)
	src := NewTSVReader(r, bufSize)
	for {
		if _, err := src.ReadEdges(l, 7); err == io.EOF {
			return l, ""
		} else if err != nil {
			return l, err.Error()
		}
	}
}

// TestTSVReaderBufferEdges moves the refill boundary across every byte of
// records, CRLFs, 20-digit fields and malformed lines: whatever the buffer
// size and however short the reads, the decoder must produce the edges and
// the error text (line number included) it produces from one big buffer.
func TestTSVReaderBufferEdges(t *testing.T) {
	const max = "18446744073709551615"
	var good strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&good, "%d\t%d\n", i*i*i*977, uint64(i)<<uint(i))
		fmt.Fprintf(&good, "%s\t%d\r\n", max, i)
		fmt.Fprintf(&good, "%d\t%s\n", i, max)
		fmt.Fprintf(&good, "%s\t%s\r\n", max, max)
		fmt.Fprintf(&good, "%0*d\t%d\n", 30+i, i, i) // zero-padded past any record bound
	}
	inputs := []string{good.String(), good.String() + "7\t8", good.String() + "7\t8\r\n"}
	for _, c := range tsvErrorCases {
		inputs = append(inputs, good.String()+c.input)
	}
	inputs = append(inputs,
		good.String()+max+"0\t1\n",    // 21 digits
		good.String()+"1\t"+max+"\r",  // CR, then the end
		good.String()+"1\t"+max+"\rx", // CR, then not LF
		good.String()+"1\t2\n"+max,    // cut after 20 digits of u
		good.String()+"1\t2\n"+max+"\t")

	var sizes []int
	for s := 16; s <= 128; s++ {
		sizes = append(sizes, s)
	}
	for s := 256; s <= 4096; s *= 2 {
		sizes = append(sizes, s)
	}
	for i, in := range inputs {
		want, wantErr := decodeTSV(strings.NewReader(in), len(in)+1)
		if i < 3 && wantErr != "" {
			t.Fatalf("input %d: reference decode failed: %s", i, wantErr)
		}
		if i >= 3 && !strings.HasPrefix(wantErr, "fastio: line ") {
			t.Fatalf("input %d: reference decode ended with %q, want a positioned error", i, wantErr)
		}
		for _, size := range sizes {
			got, gotErr := decodeTSV(strings.NewReader(in), size)
			if !got.Equal(want) || gotErr != wantErr {
				t.Fatalf("input %d, buffer %d: %d edges, error %q; one buffer gives %d edges, error %q",
					i, size, got.Len(), gotErr, want.Len(), wantErr)
			}
		}
		for name, r := range map[string]io.Reader{
			"one byte": iotest.OneByteReader(strings.NewReader(in)),
			"half":     iotest.HalfReader(strings.NewReader(in)),
			"data+EOF": iotest.DataErrReader(strings.NewReader(in)),
		} {
			got, gotErr := decodeTSV(r, 64)
			if !got.Equal(want) || gotErr != wantErr {
				t.Fatalf("input %d, %s reads: %d edges, error %q; want %d edges, error %q",
					i, name, got.Len(), gotErr, want.Len(), wantErr)
			}
		}
	}
}

// TestTSVReaderReadError: a failing reader's error comes back positioned,
// after the records that preceded it, and a reader that never makes
// progress ends the stream instead of spinning.
func TestTSVReaderReadError(t *testing.T) {
	l, msg := decodeTSV(iotest.TimeoutReader(iotest.OneByteReader(strings.NewReader("1\t2\n3\t4\n"))), 64)
	if l.Len() != 0 || msg != "fastio: line 1: "+iotest.ErrTimeout.Error() {
		t.Errorf("timeout mid-record: %d edges, %q", l.Len(), msg)
	}
	if _, msg = decodeTSV(stuckReader{}, 64); msg != "fastio: line 1: "+io.ErrNoProgress.Error() {
		t.Errorf("reader without progress: %q", msg)
	}
}

type stuckReader struct{}

func (stuckReader) Read([]byte) (int, error) { return 0, nil }

// FuzzTSVDecode checks the block scanner against the NaiveTSV reader
// (bufio.Scanner + strconv) as oracle: on any input the two decode the
// same edges and then either both end cleanly or both fail; the scanner
// never panics, gives the same answer through a 16-byte buffer, and
// ReadStriped's one-shot list reservation stays within the input's size.
// It also checks the writer: any (u, v) formats to the bytes fmt produces.
func FuzzTSVDecode(f *testing.F) {
	f.Add([]byte("1\t2\n3\t4"), uint64(0), uint64(1<<64-1))
	f.Add([]byte("1\t2\r\n3\t4\r\n"), uint64(10), uint64(99))
	f.Add([]byte(strings.Repeat("65535\t4096\n", 2000)), uint64(100), uint64(12345678901234567890))
	for _, c := range tsvErrorCases {
		f.Add([]byte(c.input), uint64(len(c.input)), uint64(c.line))
	}
	f.Fuzz(func(t *testing.T, data []byte, u, v uint64) {
		var fast, naive bytes.Buffer
		fw, nw := TSV{}.NewWriter(&fast), NaiveTSV{}.NewWriter(&naive)
		for _, s := range []EdgeSink{fw, nw} {
			if err := s.WriteEdge(u, v); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(fast.Bytes(), naive.Bytes()) {
			t.Fatalf("TSVWriter wrote %q for (%d, %d), NaiveTSV %q", fast.Bytes(), u, v, naive.Bytes())
		}

		if len(data) > 0 && data[len(data)-1] == '\r' {
			// The one documented difference: bufio.ScanLines drops a CR at
			// the very end of input; the scanner wants its LF.
			return
		}
		want := edge.NewList(0)
		var wantErr error
		for oracle := (NaiveTSV{}).NewReader(bytes.NewReader(data)); wantErr == nil; {
			_, wantErr = ReadEdges(oracle, want, 4096)
		}
		for _, size := range []int{16, DefaultBufSize} {
			got, gotErr := decodeTSV(bytes.NewReader(data), size)
			if !got.Equal(want) || (gotErr == "") != (wantErr == io.EOF) {
				t.Fatalf("buffer %d: %d edges, error %q; oracle: %d edges, %v", size, got.Len(), gotErr, want.Len(), wantErr)
			}
		}

		fs := vfs.NewMem()
		w, _ := fs.Create(StripeName("f", TSV{}, 0))
		w.Write(data)
		w.Close()
		l, err := ReadStriped(fs, "f", TSV{})
		if (err == nil) != (wantErr == io.EOF) || (err == nil && !l.Equal(want)) {
			t.Fatalf("ReadStriped: %v; oracle: %d edges, %v", err, want.Len(), wantErr)
		}
		if err == nil && cap(l.U) > len(data)/2+64 {
			t.Fatalf("ReadStriped reserved %d edges for %d input bytes", cap(l.U), len(data))
		}
	})
}
