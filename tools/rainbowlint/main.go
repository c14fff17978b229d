// Command rainbowlint is the repo's project-specific static-analysis suite:
// four analyzers that machine-check invariants the compiler cannot see
// (wire-body encode/decode symmetry, errors.Is discipline, trace-span
// pairing, checkpoint-gate and shard-lock ordering). It
// speaks cmd/go's vettool protocol, so the usual way to run it is
//
//	go build -o rainbowlint ./tools/rainbowlint
//	go vet -vettool=$(pwd)/rainbowlint ./...
//
// Invoked with package patterns directly (e.g. `rainbowlint ./...`) it
// re-executes itself through `go vet` for convenience.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"repro/tools/rainbowlint/internal/analysis"
	"repro/tools/rainbowlint/internal/analyzers"
	"repro/tools/rainbowlint/internal/unit"
)

func main() {
	suite := analyzers.Suite()

	fs := flag.NewFlagSet("rainbowlint", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: rainbowlint [packages] | go vet -vettool=rainbowlint [packages]")
		fmt.Fprintln(os.Stderr, "analyzers:")
		for _, a := range suite {
			fmt.Fprintf(os.Stderr, "  -%s\n        %s\n", a.Name, firstLine(a.Doc))
		}
	}
	vFlag := fs.String("V", "", "print version and exit")
	flagsFlag := fs.Bool("flags", false, "print analyzer flags in JSON (vettool handshake)")
	enabled := make(map[string]*bool, len(suite))
	for _, a := range suite {
		enabled[a.Name] = fs.Bool(a.Name, false, firstLine(a.Doc))
	}
	fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError

	switch {
	case *vFlag != "":
		printVersion(*vFlag)
		return
	case *flagsFlag:
		printFlagDefs(suite)
		return
	}

	args := fs.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		// cmd/go unit-checking mode: one package described by a JSON config.
		os.Exit(unit.Run(args[0], selectAnalyzers(suite, fs, enabled)))
	}

	// Standalone mode: delegate to `go vet` so package loading, caching and
	// per-package scheduling stay cmd/go's problem.
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rainbowlint: cannot locate own executable: %v\n", err)
		os.Exit(2)
	}
	vetArgs := []string{"vet", "-vettool=" + self}
	fs.Visit(func(f *flag.Flag) {
		if _, ok := enabled[f.Name]; ok {
			vetArgs = append(vetArgs, "-"+f.Name+"="+f.Value.String())
		}
	})
	if len(args) == 0 {
		args = []string{"./..."}
	}
	vetArgs = append(vetArgs, args...)
	cmd := exec.Command("go", vetArgs...)
	cmd.Stdout, cmd.Stderr, cmd.Stdin = os.Stdout, os.Stderr, os.Stdin
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			os.Exit(ee.ExitCode())
		}
		fmt.Fprintf(os.Stderr, "rainbowlint: go vet: %v\n", err)
		os.Exit(2)
	}
}

// selectAnalyzers applies go vet's narrowing convention: with no analyzer
// flags set, everything runs; setting any flag true runs exactly the true
// set; setting only false flags runs everything but those.
func selectAnalyzers(suite []*analysis.Analyzer, fs *flag.FlagSet, enabled map[string]*bool) []*analysis.Analyzer {
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) {
		if _, ok := enabled[f.Name]; ok {
			set[f.Name] = true
		}
	})
	if len(set) == 0 {
		return suite
	}
	anyTrue := false
	for name := range set {
		anyTrue = anyTrue || *enabled[name]
	}
	var out []*analysis.Analyzer
	for _, a := range suite {
		if anyTrue && *enabled[a.Name] || !anyTrue && !set[a.Name] {
			out = append(out, a)
		}
	}
	return out
}

// printVersion answers `-V=full`, which cmd/go folds into the vet action's
// cache key. The self-hash makes rebuilding the tool invalidate cached vet
// results, exactly like a released tool's build ID would.
func printVersion(mode string) {
	version := runtime.Version() + "-rainbow"
	if mode != "full" {
		fmt.Printf("rainbowlint version %s\n", version)
		return
	}
	h := sha256.New()
	if self, err := os.Executable(); err == nil {
		if f, err := os.Open(self); err == nil {
			io.Copy(h, f) //nolint:errcheck
			f.Close()
		}
	}
	fmt.Printf("rainbowlint version %s buildID=%x\n", version, h.Sum(nil)[:12])
}

// printFlagDefs answers the `-flags` handshake: cmd/go asks which flags the
// tool understands before deciding what to pass.
func printFlagDefs(suite []*analysis.Analyzer) {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	defs := make([]jsonFlag, 0, len(suite))
	for _, a := range suite {
		defs = append(defs, jsonFlag{Name: a.Name, Bool: true, Usage: firstLine(a.Doc)})
	}
	data, err := json.MarshalIndent(defs, "", "\t")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	os.Stdout.Write(data) //nolint:errcheck
	fmt.Println()
}

func firstLine(doc string) string {
	if i := strings.IndexByte(doc, '\n'); i >= 0 {
		return doc[:i]
	}
	return doc
}
