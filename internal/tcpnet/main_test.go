package tcpnet

import (
	"testing"

	"repro/internal/testutil"
)

// TestMain fails the suite if any transport goroutine (acceptor, connection
// reader) outlives the tests — every one is owned by a Close.
func TestMain(m *testing.M) { testutil.VerifyMain(m) }
