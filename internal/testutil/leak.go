// Package testutil holds cross-suite test helpers. Its centerpiece is a
// hand-rolled goroutine-leak check (the module graph is pinned with no
// network, so go.uber.org/goleak is not an option): a TestMain wrapper
// that snapshots the goroutine dump after the suite and fails if any
// goroutine is still running this repo's code. Every background worker in
// the tree (acceptor loops, checkpointers, janitors, coalescing
// senders) is owned by a Close/Stop, so a survivor here is a missing
// shutdown path, not noise.
package testutil

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// VerifyMain runs the suite and then fails the process if goroutines
// running repro code outlive it. Use from a one-line TestMain:
//
//	func TestMain(m *testing.M) { testutil.VerifyMain(m) }
func VerifyMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := leakedGoroutines(5 * time.Second); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr,
				"goroutine leak check: %d goroutine(s) still running repro code after the suite:\n\n%s\n",
				len(leaked), strings.Join(leaked, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// leakedGoroutines polls the full goroutine dump until no repro-owned
// goroutine remains or the deadline passes, returning the survivors'
// stacks. The retry loop gives legitimate shutdown paths (connection
// teardown, drain-on-close) time to run down before we call leak.
func leakedGoroutines(wait time.Duration) []string {
	deadline := time.Now().Add(wait)
	delay := 1 * time.Millisecond
	for {
		leaked := reproGoroutines()
		if len(leaked) == 0 || time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(delay)
		if delay < 100*time.Millisecond {
			delay *= 2
		}
	}
}

// reproGoroutines returns the stack of every goroutine (other than the
// caller's) with a repro function frame.
func reproGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var leaked []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if !strings.HasPrefix(g, "goroutine ") || !isReproGoroutine(g) {
			continue
		}
		// Skip the goroutine running this check itself.
		if strings.Contains(g, "repro/internal/testutil.reproGoroutines") {
			continue
		}
		leaked = append(leaked, g)
	}
	return leaked
}

// isReproGoroutine reports whether any function frame in the stanza is
// from this module. Function lines are unindented ("repro/internal/…");
// the tab-indented lines are file positions and are ignored so a GOPATH
// containing "repro" cannot confuse the match.
func isReproGoroutine(stanza string) bool {
	for _, line := range strings.Split(stanza, "\n") {
		if strings.HasPrefix(line, "repro/") ||
			strings.HasPrefix(line, "created by repro/") {
			return true
		}
	}
	return false
}
