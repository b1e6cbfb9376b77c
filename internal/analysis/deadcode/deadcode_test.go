package deadcode_test

import (
	"testing"

	"fpgavirtio/internal/analysis/analysistest"
	"fpgavirtio/internal/analysis/deadcode"
)

func TestDeadcode(t *testing.T) {
	analysistest.Run(t, deadcode.Analyzer, "testdata/dead")
}
