package main

import "time"

// span is one timed call from the benchmark into a layer's public
// function (or a group of such calls).  Parent is the ID of the span
// that was open when this one began, 0 for a root; every span under one
// root belongs to one replay repetition.  Times are nanoseconds since
// the recorder was made.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Edges  int64  `json:"edges,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// recorder keeps spans in memory until the run ends.  The replay is
// single-threaded, so the open spans form a stack.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its ID.
func (r *recorder) begin(name string) int {
	parent := 0
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(r.epoch))})
	r.open = append(r.open, id)
	return id
}

// end closes the innermost open span, which must be id, and records the
// work it covered.
func (r *recorder) end(id int, edges, bytes int64) {
	now := int64(time.Since(r.epoch))
	if len(r.open) == 0 || r.open[len(r.open)-1] != id {
		panic("bench: spans closed out of order")
	}
	r.open = r.open[:len(r.open)-1]
	s := &r.spans[id-1]
	s.End, s.Edges, s.Bytes = now, edges, bytes
}

// do times fn as one span.
func (r *recorder) do(name string, edges int64, fn func() error) error {
	id := r.begin(name)
	err := fn()
	r.end(id, edges, 0)
	return err
}

// selfSeconds is a layer's self time: each span's duration minus the
// part of it its child spans cover, summed by span name.  Children of
// one parent never overlap here (one goroutine), so the covered part is
// the sum of their durations.
func selfSeconds(spans []span) map[string]float64 {
	covered := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]float64)
	for _, s := range spans {
		self[s.Name] += float64(s.End-s.Start-covered[s.ID]) / 1e9
	}
	return self
}

// byRoot groups, for every root span named root, the spans named name
// beneath it (at any depth), in recording order.  One group is one
// repetition.
func byRoot(spans []span, root, name string) [][]span {
	rootOf := make(map[int]int, len(spans))
	index := make(map[int]int)
	var groups [][]span
	for _, s := range spans {
		if s.Parent == 0 {
			rootOf[s.ID] = s.ID
			if s.Name == root {
				index[s.ID] = len(groups)
				groups = append(groups, nil)
			}
		} else {
			rootOf[s.ID] = rootOf[s.Parent]
		}
		if g, ok := index[rootOf[s.ID]]; ok && s.Name == name {
			groups[g] = append(groups[g], s)
		}
	}
	return groups
}

// perRep reduces each repetition's spans named name to one number with
// f and returns the numbers of the repetitions that had such spans.
func perRep(spans []span, root, name string, f func(seconds float64, edges, bytes int64) float64) []float64 {
	var out []float64
	for _, g := range byRoot(spans, root, name) {
		if len(g) == 0 {
			continue
		}
		var sec float64
		var edges, bytes int64
		for _, s := range g {
			sec += s.seconds()
			edges += s.Edges
			bytes += s.Bytes
		}
		out = append(out, f(sec, edges, bytes))
	}
	return out
}

func nsPerEdge(seconds float64, edges, _ int64) float64 { return seconds * 1e9 / float64(edges) }
func spanSeconds(seconds float64, _, _ int64) float64   { return seconds }
