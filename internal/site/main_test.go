package site

import (
	"testing"

	"repro/internal/testutil"
)

// TestMain fails the suite if any site goroutine (janitor, checkpointer,
// request handler, transport loop) outlives the tests — Close owns them all.
func TestMain(m *testing.M) { testutil.VerifyMain(m) }
