package determinism_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/determinism"
)

func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", determinism.Analyzer, "detkernel", "kronecker")
}
