package fabric

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/edge"
)

func TestHeaderRoundTrip(t *testing.T) {
	var b [HeaderSize]byte
	want := Header{Type: FrameSegments, Src: 3, Dst: 7, Len: 12345}
	PutHeader(b[:], want)
	got, err := ParseHeader(b[:], 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
}

func TestParseHeaderRejects(t *testing.T) {
	valid := func() []byte {
		var b [HeaderSize]byte
		PutHeader(b[:], Header{Type: FrameVec, Src: 0, Dst: 1, Len: 8})
		return b[:]
	}
	cases := []struct {
		name   string
		mutate func(b []byte)
		maxLen int64
	}{
		{"short", func(b []byte) {}, 0}, // truncated below
		{"magic", func(b []byte) { b[0] = 'X' }, 0},
		{"version", func(b []byte) { binary.LittleEndian.PutUint16(b[4:6], Version+1) }, 0},
		{"type-zero", func(b []byte) { binary.LittleEndian.PutUint16(b[6:8], 0) }, 0},
		{"type-high", func(b []byte) { binary.LittleEndian.PutUint16(b[6:8], 999) }, 0},
		{"oversized", func(b []byte) { binary.LittleEndian.PutUint64(b[16:24], 1<<40) }, 0},
		{"over-custom-limit", func(b []byte) { binary.LittleEndian.PutUint64(b[16:24], 100) }, 64},
	}
	for _, tc := range cases {
		b := valid()
		tc.mutate(b)
		if tc.name == "short" {
			b = b[:HeaderSize-1]
		}
		if _, err := ParseHeader(b, tc.maxLen); err == nil {
			t.Errorf("%s: ParseHeader accepted a corrupt header", tc.name)
		}
	}
}

func TestPayloadRoundTrips(t *testing.T) {
	vec := []float64{0, 1.5, -2.25, math.Inf(1), math.Copysign(0, -1)}
	b := AppendVec(nil, vec)
	if len(b) != 8*len(vec) {
		t.Fatalf("vec payload %d bytes, want %d", len(b), 8*len(vec))
	}
	got := make([]float64, len(vec))
	if err := DecodeVec(b, got); err != nil {
		t.Fatal(err)
	}
	for i := range vec {
		if math.Float64bits(got[i]) != math.Float64bits(vec[i]) {
			t.Fatalf("vec[%d]: got %v, want %v", i, got[i], vec[i])
		}
	}

	keys := []uint64{0, 1, 1 << 63, ^uint64(0)}
	kb := AppendKeys(nil, keys)
	kg := make([]uint64, len(keys))
	if err := DecodeKeys(kb, kg); err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if kg[i] != keys[i] {
			t.Fatalf("keys[%d]: got %d, want %d", i, kg[i], keys[i])
		}
	}

	l := edge.NewList(3)
	l.Append(1, 2)
	l.Append(3, 4)
	l.Append(5, 6)
	eb := AppendEdges(nil, l)
	if len(eb) != 16*l.Len() {
		t.Fatalf("edges payload %d bytes, want %d", len(eb), 16*l.Len())
	}
	eg := edge.NewList(0)
	if err := DecodeEdges(eb, eg); err != nil {
		t.Fatal(err)
	}
	if !l.Equal(eg) {
		t.Fatal("edges round trip mismatch")
	}

	empty := edge.NewList(0)
	segs := []*edge.List{l, empty, eg}
	sb := AppendSegments(nil, segs)
	wantData := uint64(16 * (l.Len() + eg.Len()))
	if uint64(len(sb)) != wantData+SegmentsOverhead(len(segs)) {
		t.Fatalf("segments payload %d bytes, want %d data + %d overhead",
			len(sb), wantData, SegmentsOverhead(len(segs)))
	}
	sg, err := DecodeSegments(sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(sg) != len(segs) {
		t.Fatalf("got %d segments, want %d", len(sg), len(segs))
	}
	for i := range segs {
		if !segs[i].Equal(sg[i]) {
			t.Fatalf("segment %d mismatch", i)
		}
	}
}

func TestDecodeRejectsMalformedPayloads(t *testing.T) {
	if err := DecodeVec(make([]byte, 7), make([]float64, 0)); err == nil {
		t.Error("DecodeVec accepted a ragged payload")
	}
	if err := DecodeKeys(make([]byte, 9), make([]uint64, 1)); err == nil {
		t.Error("DecodeKeys accepted a ragged payload")
	}
	if err := DecodeEdges(make([]byte, 15), edge.NewList(0)); err == nil {
		t.Error("DecodeEdges accepted a ragged payload")
	}
	// Segment count far beyond the payload must be rejected before any
	// allocation sized from it.
	b := binary.LittleEndian.AppendUint32(nil, 1<<30)
	if _, err := DecodeSegments(b); err == nil {
		t.Error("DecodeSegments accepted an absurd segment count")
	}
	// An edge count beyond the remaining bytes.
	b = binary.LittleEndian.AppendUint32(nil, 1)
	b = binary.LittleEndian.AppendUint32(b, 1000)
	if _, err := DecodeSegments(b); err == nil {
		t.Error("DecodeSegments accepted an oversized edge count")
	}
	// Trailing garbage after the last segment.
	b = AppendSegments(nil, []*edge.List{edge.NewList(0)})
	b = append(b, 0xFF)
	if _, err := DecodeSegments(b); err == nil {
		t.Error("DecodeSegments accepted trailing bytes")
	}
}

func TestHandshakeRoundTrips(t *testing.T) {
	j := Join{FabricID: "fab-1", MeshNetwork: "unix", MeshAddr: "/tmp/x.sock"}
	gotJ, err := ParseJoin(AppendJoin(nil, j))
	if err != nil {
		t.Fatal(err)
	}
	if gotJ != j {
		t.Fatalf("join: got %+v, want %+v", gotJ, j)
	}

	// The deadline round-trips whatever it is: unset, the default, a
	// short one, disabled (negative), and the extremes.
	for _, timeout := range []time.Duration{0, DefaultIOTimeout, 100 * time.Millisecond, -1, math.MaxInt64, math.MinInt64} {
		w := Welcome{Rank: 2, Procs: 4, IOTimeout: timeout, MeshNetwork: "tcp",
			MeshAddrs: []string{"a:1", "b:2", "", "d:4"}}
		gotW, err := ParseWelcome(AppendWelcome(nil, w))
		if err != nil {
			t.Fatal(err)
		}
		if gotW.Rank != w.Rank || gotW.Procs != w.Procs || gotW.IOTimeout != w.IOTimeout || gotW.MeshNetwork != w.MeshNetwork {
			t.Fatalf("welcome: got %+v, want %+v", gotW, w)
		}
		for i := range w.MeshAddrs {
			if gotW.MeshAddrs[i] != w.MeshAddrs[i] {
				t.Fatalf("welcome addr %d: got %q, want %q", i, gotW.MeshAddrs[i], w.MeshAddrs[i])
			}
		}
	}

	h := MeshHello{FabricID: "fab-1", Src: 3, Dst: 1}
	gotH, err := ParseMeshHello(AppendMeshHello(nil, h))
	if err != nil {
		t.Fatal(err)
	}
	if gotH != h {
		t.Fatalf("mesh hello: got %+v, want %+v", gotH, h)
	}
}

func TestHandshakeRejects(t *testing.T) {
	// Rank out of range.
	b := AppendWelcome(nil, Welcome{Rank: 4, Procs: 4, MeshNetwork: "unix", MeshAddrs: make([]string, 4)})
	if _, err := ParseWelcome(b); err == nil {
		t.Error("ParseWelcome accepted rank >= p")
	}
	// Absurd p.
	b = AppendInt(AppendInt(nil, 0), maxProcs+1)
	if _, err := ParseWelcome(b); err == nil {
		t.Error("ParseWelcome accepted absurd p")
	}
	// Truncations of every message type.
	full := AppendJoin(nil, Join{FabricID: "f", MeshNetwork: "unix", MeshAddr: "a"})
	for cut := 0; cut < len(full); cut++ {
		if _, err := ParseJoin(full[:cut]); err == nil {
			t.Fatalf("ParseJoin accepted a %d-byte truncation", cut)
		}
	}
	fullW := AppendWelcome(nil, Welcome{Rank: 1, Procs: 2, IOTimeout: time.Second, MeshNetwork: "unix", MeshAddrs: []string{"a", "b"}})
	for cut := 0; cut < len(fullW); cut++ {
		if _, err := ParseWelcome(fullW[:cut]); err == nil {
			t.Fatalf("ParseWelcome accepted a %d-byte truncation", cut)
		}
	}
	fullH := AppendMeshHello(nil, MeshHello{FabricID: "f", Src: 1, Dst: 0})
	for cut := 0; cut < len(fullH); cut++ {
		if _, err := ParseMeshHello(fullH[:cut]); err == nil {
			t.Fatalf("ParseMeshHello accepted a %d-byte truncation", cut)
		}
	}
}

// TestLinkFrameAccounting pins the three accounting planes over a real
// socket pair: data bytes at exactly the wire-cost formulas, control
// bytes for control payloads, headers and segment boundaries as
// overhead — and reads counting nothing.
func TestLinkFrameAccounting(t *testing.T) {
	c1, c2 := net.Pipe()
	var wst, rst Stats
	w := NewLink(c1, -1, &wst) // net.Pipe has no deadline support in use here
	r := NewLink(c2, -1, &rst)
	defer w.Close()
	defer r.Close()

	errc := make(chan error, 1)
	go func() {
		if err := w.WriteVec(0, 1, []float64{1, 2, 3}); err != nil {
			errc <- err
			return
		}
		l := edge.NewList(2)
		l.Append(7, 8)
		l.Append(9, 10)
		if err := w.WriteSegments(0, 1, []*edge.List{l}); err != nil {
			errc <- err
			return
		}
		errc <- w.WriteControl(FrameString, 0, 1, []byte("boom"))
	}()

	h, payload, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != FrameVec || h.Len != 24 {
		t.Fatalf("frame 1: %+v", h)
	}
	got := make([]float64, 3)
	if err := DecodeVec(payload, got); err != nil {
		t.Fatal(err)
	}
	if h, _, err = r.ReadFrame(); err != nil || h.Type != FrameSegments {
		t.Fatalf("frame 2: %+v, %v", h, err)
	}
	if h, payload, err = r.ReadFrame(); err != nil || h.Type != FrameString || string(payload) != "boom" {
		t.Fatalf("frame 3: %+v, %v", h, err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	c := wst.Snapshot()
	wantData := uint64(8*3 + 16*2)
	wantControl := uint64(len("boom"))
	wantOverhead := uint64(3*HeaderSize) + SegmentsOverhead(1)
	if c.DataBytes != wantData || c.ControlBytes != wantControl || c.OverheadBytes != wantOverhead || c.Frames != 3 {
		t.Fatalf("writer counters %+v, want data %d control %d overhead %d frames 3",
			c, wantData, wantControl, wantOverhead)
	}
	if rc := rst.Snapshot(); rc != (Counters{}) {
		t.Fatalf("reader counted %+v, want nothing (write-side accounting only)", rc)
	}
}

// TestLinkRejectsCorruptStream pins that a reader fed garbage fails
// instead of allocating or hanging.
func TestLinkRejectsCorruptStream(t *testing.T) {
	c1, c2 := net.Pipe()
	var st Stats
	r := NewLink(c2, -1, &st)
	defer r.Close()
	go func() {
		defer c1.Close()
		junk := bytes.Repeat([]byte{0xAB}, HeaderSize)
		c1.Write(junk)
	}()
	if _, _, err := r.ReadFrame(); err == nil {
		t.Fatal("ReadFrame accepted a garbage header")
	}
}

// TestReaderBlockRejectsCorrupt pins the row-block field a job ships:
// it decodes back to the block, and a block whose counts or row pointers
// do not add up is refused before anything is sized from it.
func TestReaderBlockRejectsCorrupt(t *testing.T) {
	rowPtr, col, val := []int64{0, 2, 2, 3}, []uint32{1, 4, 0}, []float64{0.5, 0.5, 1}
	good := AppendBlock(nil, rowPtr, col, val)
	r := NewReader(good)
	gotPtr, gotCol, gotVal := r.Block()
	if err := r.Close(); err != nil || !equal(gotPtr, rowPtr) || !equal(gotCol, col) || !equal(gotVal, val) {
		t.Fatalf("decoded %v %v %v, %v", gotPtr, gotCol, gotVal, err)
	}
	for name, mutate := range map[string]func(b []byte) []byte{
		"truncated":     func(b []byte) []byte { return b[:len(b)-1] },
		"trailing byte": func(b []byte) []byte { return append(b, 0) },
		"row count":     func(b []byte) []byte { b[0]++; return b },
		"huge counts":   func(b []byte) []byte { b[7], b[15] = 0x20, 0x20; return b },
		"first pointer": func(b []byte) []byte { b[16] = 1; return b },
		"decreasing":    func(b []byte) []byte { b[16+8] = 3; return b },
		"last pointer":  func(b []byte) []byte { b[16+24] = 2; return b },
		"header only":   func(b []byte) []byte { return b[:16] },
	} {
		r := NewReader(mutate(append([]byte(nil), good...)))
		r.Block()
		if r.Close() == nil {
			t.Errorf("%s: Block accepted a corrupt block", name)
		}
	}
}

// TestParseHeaderVersionMismatch: a frame from another build is refused
// with a typed error that names both versions.
func TestParseHeaderVersionMismatch(t *testing.T) {
	var b [HeaderSize]byte
	PutHeader(b[:], Header{Type: FrameJoin})
	binary.LittleEndian.PutUint16(b[4:6], Version-1)
	_, err := ParseHeader(b[:], 0)
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Peer != Version-1 {
		t.Fatalf("ParseHeader: %v, want a VersionError for version %d", err, Version-1)
	}
	want := "peer speaks wire version " + strconv.Itoa(Version-1) + ", this build speaks " + strconv.Itoa(Version)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not say %q", err, want)
	}
}

func equal[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLinkIdleIsNotStalled pins the deadline's scope on a real socket:
// a link may wait for a frame far longer than its timeout (a resident
// session idles between jobs), a frame that stops arriving half way is
// a timeout, and a peer closing between frames is io.EOF.
func TestLinkIdleIsNotStalled(t *testing.T) {
	const timeout = 50 * time.Millisecond
	path := filepath.Join(t.TempDir(), "l.sock")
	ln, err := Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var st Stats
	w, err := Dial("unix", path, timeout, &st)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	r := NewLink(conn, timeout, &st)
	defer r.Close()

	go func() {
		time.Sleep(5 * timeout) // idle well past the deadline, then a whole frame
		w.WriteControl(FrameString, 0, 1, []byte("late"))
		// Then half a header, and nothing.
		w.conn.Write([]byte(Magic))
	}()
	h, payload, err := r.ReadFrame()
	if err != nil || h.Type != FrameString || string(payload) != "late" {
		t.Fatalf("frame after an idle wait: %+v %q, %v", h, payload, err)
	}
	_, _, err = r.ReadFrame()
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled frame: err = %v, want a deadline error", err)
	}

	// A fresh pair: the writer closes between frames.
	w2, err := Dial("unix", path, timeout, &st)
	if err != nil {
		t.Fatal(err)
	}
	conn2, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewLink(conn2, timeout, &st)
	defer r2.Close()
	w2.Close()
	if _, _, err := r2.ReadFrame(); !errors.Is(err, io.EOF) {
		t.Fatalf("closed between frames: err = %v, want io.EOF", err)
	}
}

// TestLinkVecFrameNeedsNoReader pins the socket buffer sizing: a vector
// frame of 2^16 floats — the all-reduce payload of a scale-16 run — is
// accepted by the kernel whole, with nobody reading, so a sender never
// waits for the receiving process to be scheduled mid-frame.
func TestLinkVecFrameNeedsNoReader(t *testing.T) {
	const n = 1 << 16
	if b, err := os.ReadFile("/proc/sys/net/core/wmem_max"); err != nil {
		t.Skip("no wmem_max to read:", err)
	} else if max, _ := strconv.Atoi(strings.TrimSpace(string(b))); max < 8*n+HeaderSize {
		t.Skipf("kernel caps send buffers at %d bytes", max)
	}
	path := filepath.Join(t.TempDir(), "l.sock")
	ln, err := Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var st Stats
	w, err := Dial("unix", path, time.Second, &st)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	r := NewLink(conn, time.Second, &st)
	defer r.Close()

	vec := make([]float64, n)
	for i := range vec {
		vec[i] = float64(i)
	}
	if err := w.WriteVec(0, 1, vec); err != nil {
		t.Fatalf("writing a %d-float frame with no reader: %v", n, err)
	}
	h, payload, err := r.ReadFrame()
	if err != nil || h.Type != FrameVec {
		t.Fatalf("reading it back: %+v, %v", h, err)
	}
	got := make([]float64, n)
	if err := DecodeVec(payload, got); err != nil || !equal(got, vec) {
		t.Fatalf("frame did not round-trip: %v", err)
	}
}
