// Golden-file tests: each analyzer runs over a fixture package under
// testdata/src carrying `// want "re"` expectations. A disabled or
// regressed analyzer leaves wants unmatched, which fails the test.
package analyzers_test

import (
	"testing"

	"repro/tools/rainbowlint/internal/analyzers"
	"repro/tools/rainbowlint/internal/anatest"
)

func TestBodycheck(t *testing.T)  { anatest.Run(t, analyzers.Bodycheck, "bodytest") }
func TestErrcompare(t *testing.T) { anatest.Run(t, analyzers.Errcompare, "errcmptest") }
func TestSpanfinish(t *testing.T) { anatest.Run(t, analyzers.Spanfinish, "spantest") }
func TestGateorder(t *testing.T)  { anatest.Run(t, analyzers.Gateorder, "site") }

// TestSuiteComplete pins the multichecker line-up: dropping an analyzer
// from Suite would silently stop enforcing its invariant in CI.
func TestSuiteComplete(t *testing.T) {
	want := []string{"bodycheck", "errcompare", "spanfinish", "gateorder"}
	suite := analyzers.Suite()
	if len(suite) != len(want) {
		t.Fatalf("Suite has %d analyzers, want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("Suite[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("%s has no Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("%s has no Run", a.Name)
		}
	}
}
