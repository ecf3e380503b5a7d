// Package kronecker stands in for the kernel-0 generator, which writes
// kernel 0's edges and so is under the reproducibility rules: its
// sampling runs on an ordered ring, never on a raw goroutine.
package kronecker

func rawSampler(fill func()) {
	go fill() // want `raw go statement in kernel package kronecker`
}

// A justified spawn is the documented escape.
func okSampler(fill func()) {
	//prlint:allow determinism -- a stand-in for a spawn whose join order is pinned
	go fill()
}
