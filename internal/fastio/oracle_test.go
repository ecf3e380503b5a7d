package fastio

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"maps"
	"slices"
	"testing"

	"repro/internal/edge"
	"repro/internal/xrand"
)

// encoderGolden holds, for each codec and list of encoderLists, the
// SHA-256 of encoderStreams' bytes.  They were recorded from the codecs'
// record-by-record stream writers, before the stream writers and the
// whole-list encoder became one (commit cccc1e9), and are never re-recorded: they are the
// encoder's oracle.
var encoderGolden = map[string]string{
	"tsv/bounds":        "1776e5f6b39a13778a9e46c1980d278400792028b8f803d524989c9fbe9ee949",
	"tsv/constU":        "fdc22cbb80fdd97d57078c85c011d1bc3b9a3864044639f03517a43d0b5828b8",
	"tsv/descending":    "51a5f9f76f98bddc953de654fb51d24e25552b55c50fe78e8038aac6889b5fa3",
	"tsv/empty":         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"tsv/multiBlock":    "43a6342bf60009a682c21e64c69e9dd439e97f66aa89a2f89db0c18f916f5eef",
	"tsv/one":           "4d63a282beee51a4fd84754386bd16fe5b7c3c00b60d0382f21a4abf34531519",
	"tsv/random":        "326a7c6ebf8b2c24a4a53c9118c2e86a86a15be41d7e8befdea45006681f62ff",
	"bin/bounds":        "e1d59d3b1bc54b11a21867e4584db4b5cd2e1b18d94c5f801b1408555cb256e1",
	"bin/constU":        "0340b34417978e6572fce7bb60e8b3795620af45240d7de19c910d4b68d66045",
	"bin/descending":    "41d073139e135807383c309fa366db3a41fe19e866d83fd5286957f4c672d438",
	"bin/empty":         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
	"bin/multiBlock":    "9b91a4d0891d1e5f9619b4bd3ba5f357888417a1edb27bd0c645c68725ec4f8e",
	"bin/one":           "61d693b478db0a52692213ed3170cac5b7261dd9d10ab4cd08aca018ee2c8332",
	"bin/random":        "136071da79aeb7a85319c5cf920fc85520a58ef369e354909490017fd6f5b96b",
	"packed/bounds":     "afdd76edb782ff797fbb67cfc509b4476041063fd7103215aa5b4d65e90bea17",
	"packed/constU":     "7b5095b871f79edbc7a20578d0639cd7d41718b788ef13c44a8c7c9fa7459d93",
	"packed/descending": "ea0d444b5acd23ed2b2866370b290e5d2622431197ed5b7409c89122133da625",
	"packed/empty":      "6b55185d255e441f415808971364194d25fe2a92a1091fd539215dbb62e1f13b",
	"packed/multiBlock": "b147a79f451109863a9935a7a651acfd8f3377bfcc8e147a71cff03de155888b",
	"packed/one":        "8cff385dd89d5945f5e82293e23a6298a607508b0593c741d4b018cbd482d922",
	"packed/random":     "1ec949675a71bd3131aae8578c974b5468b843c650dafb6348079de023d93efe",
}

// encoderLists are the lists the encoder golden covers: every degenerate
// list and a random one of three Packed blocks and 17 edges whose labels
// take every digit count.
func encoderLists() map[string]*edge.List {
	lists := degenerateLists()
	g := xrand.New(45)
	l := edge.NewList(3*PackedBlockEdges + 17)
	for range 3*PackedBlockEdges + 17 {
		l.Append(g.Next()>>(g.Next()%64), g.Next()>>(g.Next()%64))
	}
	lists["random"] = l
	return lists
}

// encoderStreams writes l through c's stream writer once for each split of
// 1, 7, 4 095 and 4 097 edges per WriteEdges call, with one Flush after the
// first call that reaches half the list (a short Packed block), and
// returns the streams back to back.
func encoderStreams(t *testing.T, c Codec, l *edge.List) []byte {
	t.Helper()
	var all []byte
	for _, split := range []int{1, 7, 4095, 4097} {
		var buf bytes.Buffer
		w := c.NewWriter(&buf)
		flushed := false
		for lo := 0; lo < l.Len(); lo += split {
			hi := min(lo+split, l.Len())
			if err := WriteEdges(w, l, lo, hi); err != nil {
				t.Fatal(err)
			}
			if !flushed && 2*hi >= l.Len() {
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				flushed = true
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		all = append(all, buf.Bytes()...)
	}
	return all
}

// TestEncoderGolden holds every splittable codec's stream writer to the
// bytes the record-by-record writers wrote.
func TestEncoderGolden(t *testing.T) {
	lists := encoderLists()
	for _, c := range []Codec{TSV{}, Binary{}, Packed{}} {
		for _, name := range slices.Sorted(maps.Keys(lists)) {
			key := c.Name() + "/" + name
			sum := sha256.Sum256(encoderStreams(t, c, lists[name]))
			if got := hex.EncodeToString(sum[:]); got != encoderGolden[key] {
				t.Errorf("%q: %q,", key, got)
			}
		}
	}
}
