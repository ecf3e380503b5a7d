package fastio

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/edge"
)

// decodeTSV decodes all of input through the tsv stream reader in blocks
// of bufSize bytes, returning the edges read before the stream ended and
// how it ended ("" for a clean end).
func decodeTSV(r io.Reader, bufSize int) (*edge.List, string) {
	l := edge.NewList(0)
	src := newBlockReader(TSV{}, r, bufSize)
	for {
		before := l.Len()
		n, err := src.ReadEdges(l, 7)
		if n > 7 || l.Len() != before+n {
			return l, fmt.Sprintf("ReadEdges(7) returned %d and appended %d", n, l.Len()-before)
		}
		if err == io.EOF {
			return l, ""
		} else if err != nil {
			return l, err.Error()
		}
	}
}

// scanTSV is decodeTSV through readEdge alone, i.e. through the byte
// scanner that defines the codec, over all of r at once.
func scanTSV(r io.Reader, _ int) (*edge.List, string) {
	l := edge.NewList(0)
	src := newTSVScanner(r)
	for {
		u, v, err := src.readEdge()
		if err == io.EOF {
			return l, ""
		} else if err != nil {
			return l, err.Error()
		}
		l.Append(u, v)
	}
}

// scanCount decodes in through the tsv byte scanner alone, returning the
// edges before the stream ended and what ended it, io.EOF included.
func scanCount(in string) (int, error) {
	r := newTSVScanner(strings.NewReader(in))
	for n := 0; ; n++ {
		if _, _, err := r.readEdge(); err != nil {
			return n, err
		}
	}
}

// newTSVScanner returns the byte scanner over all of r, read at once.
func newTSVScanner(r io.Reader) *tsvScanner {
	data, _ := io.ReadAll(r)
	return &tsvScanner{buf: append(data, make([]byte, 1+wordSlack)...), end: len(data)}
}

// TestTSVReaderBufferEdges moves the block boundary across every byte of
// records, CRLFs, 20-digit fields and malformed lines: whatever the buffer
// size and however short the reads, ReadEdges must produce the edges and
// the error text (line number included) that readEdge's byte scanner
// produces from one big buffer.  The records around eight digits per field
// are the edges of ReadEdges' word-at-a-time path, so it meets each of
// them, and each malformed record, at every offset in the buffer and in
// the word, and in batches of 7 that end anywhere.
func TestTSVReaderBufferEdges(t *testing.T) {
	const max = "18446744073709551615"
	// 16 bytes each: a newline, then a tab, as the last byte of a 16-byte block.
	const nlLast, tabLast = "1234567\t1234567\n", "123456789012345\t"
	var good strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&good, "%d\t%d\n", i*i*i*977, uint64(i)<<uint(i))
		fmt.Fprintf(&good, "%s\t%d\r\n", max, i)
		fmt.Fprintf(&good, "%d\t%s\n", i, max)
		fmt.Fprintf(&good, "%s\t%s\r\n", max, max)
		fmt.Fprintf(&good, "%0*d\t%d\n", 30+i, i, i) // zero-padded past any record bound
		// 7, 8 and 9 digits; 8 zero-padded; the terminator as the 9th byte.
		fmt.Fprintf(&good, "%07d\t%08d\n%09d\t%07d\n", 1000000+i, 10000000+i, 100000000+i, i)
		fmt.Fprintf(&good, "%08d\t%08d\n", i, 99999999-i)
		fmt.Fprintf(&good, "%d\t%d\n%d\t%d\n", 1234, 100+i, 10000000+i, i%10)
	}
	goods := []string{good.String(), good.String() + "7\t8", good.String() + "7\t8\r\n",
		nlLast + good.String(), tabLast + "1\n" + good.String(), good.String() + "12345678\t87654321"}
	inputs := goods
	for _, c := range tsvErrorCases {
		inputs = append(inputs, good.String()+c.input)
	}
	inputs = append(inputs,
		good.String()+max+"0\t1\n",    // 21 digits
		good.String()+"1\t"+max+"\r",  // CR, then the end
		good.String()+"1\t"+max+"\rx", // CR, then not LF
		good.String()+"1\t2\n"+max,    // cut after 20 digits of u
		good.String()+"1\t2\n"+max+"\t",
		good.String()+"12345678\t\n",         // 8 digits, then an empty field
		good.String()+"12345678\t12345678\r", // 8 digits, CR, then the end
		good.String()+"1234567\t12345678\t\n",
		good.String()+"123456789\t1x\n",
		good.String()+"1\t2\t3\n",
		nlLast+"12345678",
		tabLast+"\n",
		tabLast)

	var sizes []int
	for s := 16; s <= 128; s++ {
		sizes = append(sizes, s)
	}
	for s := 256; s <= 4096; s *= 2 {
		sizes = append(sizes, s)
	}
	for i, in := range inputs {
		want, wantErr := scanTSV(strings.NewReader(in), len(in)+1)
		if i < len(goods) && wantErr != "" {
			t.Fatalf("input %d: reference decode failed: %s", i, wantErr)
		}
		if i >= len(goods) && !strings.HasPrefix(wantErr, "fastio: line ") {
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
