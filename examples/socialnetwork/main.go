// Socialnetwork: PageRank beyond the web (paper §III cites social-network
// analysis as a primary application).  This example builds a synthetic
// follower graph with the deterministic perfect-power-law generator,
// contrasts its degree skew with an Erdős–Rényi control, runs the
// pipeline's PageRank, and shows that rank correlates with — but is not
// identical to — raw popularity (in-degree).
//
//	go run ./examples/socialnetwork
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/gensuite"
	"repro/internal/pagerank"
	"repro/internal/pipeline"
	"repro/internal/sparse"
)

func main() {
	// 4096 accounts; an edge u->v means "u follows v", so PageRank flows
	// along follow edges and accumulates at influential accounts.
	gen := gensuite.PPL{Scale: 12, EdgeFactor: 16, Alpha: 1.0, Seed: 5}
	follows, err := gen.Generate()
	if err != nil {
		log.Fatal(err)
	}
	n := int(gen.NumVertices())
	fmt.Printf("follower graph: %d accounts, %d follow edges (deterministic PPL)\n", n, follows.Len())

	// Degree skew: the PPL graph is heavy-tailed, the ER control is not.
	// Kernel 2's super-node elimination exists exactly because of this
	// skew.
	a, err := sparse.FromEdges(follows, n)
	if err != nil {
		log.Fatal(err)
	}
	er := gensuite.ER{Scale: 12, EdgeFactor: 16, Seed: 5}
	erEdges, err := er.Generate()
	if err != nil {
		log.Fatal(err)
	}
	control, err := sparse.FromEdges(erEdges, n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("out-degree max / mean: PPL %s, Erdős–Rényi control %s\n\n", skew(a), skew(control))

	// Pipeline kernels 2-3 on the follower graph.
	inDeg := a.InDegrees() // popularity before filtering
	pipeline.ApplyKernel2Filter(a)
	res, err := pagerank.Gather(a, pagerank.Options{Seed: 1, Iterations: 100, Dangling: true})
	if err != nil {
		log.Fatal(err)
	}

	// Influence (PageRank) vs. popularity (in-degree).
	accounts := make([]account, n)
	for i := range accounts {
		accounts[i] = account{i, res.Rank[i], inDeg[i]}
	}
	sort.Slice(accounts, func(i, j int) bool { return accounts[i].rank > accounts[j].rank })
	fmt.Println("top influencers by PageRank:")
	fmt.Println("  account   rank       in-degree")
	for i := 0; i < 8; i++ {
		a := accounts[i]
		fmt.Printf("  %-8d  %.6f   %.0f\n", a.id, a.rank, a.in)
	}
	fmt.Printf("\nrank/in-degree Spearman-style agreement in the top 100: %.0f%%\n",
		overlapPercent(accounts, inDeg, 100))
}

// skew reports a matrix's maximum and mean out-degree.
func skew(a *sparse.CSR) string {
	most, sum := 0.0, 0.0
	for _, d := range a.OutDegrees() {
		most, sum = max(most, d), sum+d
	}
	mean := sum / float64(a.Rows())
	return fmt.Sprintf("%.0f / %.1f (%.1f×)", most, mean, most/mean)
}

// account pairs an id with its PageRank and in-degree.
type account struct {
	id   int
	rank float64
	in   float64
}

// overlapPercent reports how much of the top-k by rank is also top-k by
// in-degree.
func overlapPercent(byRank []account, inDeg []float64, k int) float64 {
	type pop struct {
		id int
		in float64
	}
	pops := make([]pop, len(inDeg))
	for i, d := range inDeg {
		pops[i] = pop{i, d}
	}
	sort.Slice(pops, func(i, j int) bool { return pops[i].in > pops[j].in })
	topPop := make(map[int]bool, k)
	for i := 0; i < k && i < len(pops); i++ {
		topPop[pops[i].id] = true
	}
	hits := 0
	for i := 0; i < k && i < len(byRank); i++ {
		if topPop[byRank[i].id] {
			hits++
		}
	}
	return 100 * float64(hits) / float64(k)
}
