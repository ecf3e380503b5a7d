package dist

// CommStats records the communication volume of a distributed run, broken
// down by collective kind.  Byte counts are wire bytes under a linear
// cost model: a broadcast of B payload bytes to p processors sends
// B·(p-1) bytes, an all-reduce gathers and redistributes for 2·B·(p-1),
// and all-to-all counts every byte that leaves its source processor.
// A single processor communicates nothing: at p = 1 every collective is
// a local no-op and the whole record stays zero, for Sort and Run alike.
//
// Every execution mode fills the record the same way: each rank counts
// the payload bytes it actually puts on a link, and the collectives
// (collective.go) move exactly the bytes the formulas below price
// (DESIGN.md §5).
type CommStats struct {
	// AllToAllBytes is the personalized-exchange volume: edge data (and
	// sort samples) routed between distinct processors.
	AllToAllBytes uint64
	// AllReduceCalls counts reduction collectives (in-degree vector,
	// rank-vector product, dangling-mass scalar).
	AllReduceCalls uint64
	// AllReduceBytes is the all-reduce wire volume, 2·payload·(p-1) per call.
	AllReduceBytes uint64
	// BroadcastCalls counts one-to-all collectives (splitters, the initial
	// rank vector).
	BroadcastCalls uint64
	// BroadcastBytes is the broadcast wire volume, payload·(p-1) per call.
	BroadcastBytes uint64
}

// Add accumulates another record — the driver totals the per-rank records
// with it (byte counts are sender-side, so the sum is the wire total), and
// the pipeline's dist variants total their kernels' records into one
// per-run trajectory entry.
func (s *CommStats) Add(o CommStats) {
	s.AllToAllBytes += o.AllToAllBytes
	s.AllReduceCalls += o.AllReduceCalls
	s.AllReduceBytes += o.AllReduceBytes
	s.BroadcastCalls += o.BroadcastCalls
	s.BroadcastBytes += o.BroadcastBytes
}

// Wire-cost formulas of the linear model, shared verbatim by the
// collective layer (collective.go), the socket frame encodings and the
// closed form (PredictedCommBytes): every byte count in the package is
// derived here, which is what makes "measured equals predicted" an
// identity rather than an approximation.
const (
	// floatWireBytes is the wire size of one float64 element.
	floatWireBytes = 8
	// keyWireBytes is the wire size of one uint64 sort key.
	keyWireBytes = 8
	// edgeWireBytes is the wire size of one routed edge (two uint64
	// endpoints).
	edgeWireBytes = 16
)

// broadcastWire prices a one-to-all of payload bytes on p processors.
func broadcastWire(payload uint64, p int) uint64 { return payload * uint64(p-1) }

// allReduceWire prices an all-reduce of payload bytes on p processors:
// a gather to the root plus a redistribution, each payload·(p-1).
func allReduceWire(payload uint64, p int) uint64 { return 2 * payload * uint64(p-1) }

// blockBounds returns the half-open range [lo, hi) of the r-th of p
// contiguous blocks of n items: the canonical 1D block distribution used
// for both row ownership and input-chunk ownership.
func blockBounds(n, p, r int) (lo, hi int) {
	return r * n / p, (r + 1) * n / p
}

// blockOwner returns the rank whose blockBounds range contains index i.
func blockOwner(n, p int, i int) int {
	r := i * p / n
	if r >= p {
		r = p - 1
	}
	// i*p/n is only an estimate of the inverse of blockBounds' integer
	// floors; walk to the block that actually contains i.
	for r > 0 && i < r*n/p {
		r--
	}
	for r < p-1 && i >= (r+1)*n/p {
		r++
	}
	return r
}

// PredictedCommBytes is the closed-form model of Run's collective traffic
// (all-reduce plus broadcast wire bytes) for an n-vertex graph on p
// processors running the given number of PageRank iterations:
//
//	broadcast of the initial rank vector:   8·n·(p-1)
//	all-reduce of the in-degree vector:   2·8·n·(p-1)        (kernel 2)
//	matrix-mass and NNZ scalars:        2·2·8·(p-1)          (kernel 2)
//	per iteration, all-reduce of r·A:     2·8·n·(p-1)        (kernel 3)
//	per iteration, dangling-mass scalar:  2·8·(p-1)  if dangling
//
// The model equals the measured Comm.AllReduceBytes + Comm.BroadcastBytes
// of an OpRun exactly — not approximately — in every execution mode,
// because the one rank program and the closed form are derived from the
// same collective schedule and wire-cost formulas; prreport asserts the
// equality on every run.  All-to-all edge routing is excluded: it belongs
// to kernel 1's cost (see perfmodel.ParallelKernel1) and depends on the
// data, not just n.
func PredictedCommBytes(n, p, iterations int, dangling bool) uint64 {
	if p <= 1 {
		return 0
	}
	vec := floatWireBytes * uint64(n)
	total := broadcastWire(vec, p)                // initial rank-vector broadcast
	total += allReduceWire(vec, p)                // in-degree all-reduce (filter)
	total += 2 * allReduceWire(floatWireBytes, p) // matrix-mass and NNZ scalars
	perIter := allReduceWire(vec, p)              // rank-vector product all-reduce
	if dangling {
		perIter += allReduceWire(floatWireBytes, p) // dangling-mass scalar
	}
	return total + uint64(iterations)*perIter
}
