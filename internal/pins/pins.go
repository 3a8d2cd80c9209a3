// Package pins holds the test suite's pinned digests. Each package that
// pins one keeps its entries in testdata/pins.txt, one line per entry:
//
//	<kind>/<name> <sha256 hex> <producing test>
//
// The kind says what moves the digest: stats/ (a run's Stats, which move
// only with behaviour), snapshot/ (checkpoint bytes, which also move with
// the byte format), candidates/ (a routing function's candidate order),
// certificate/ (the prover's certificate bytes) or cli/ (a command's
// printed digest). Blank lines and lines starting with # are comments.
//
// Check compares exact bytes. With PINS_UPDATE=1 in the environment it
// instead records every mismatch, and Main rewrites those entries in place
// and fails the run with an "old → new" line for each, so that one
// `PINS_UPDATE=1 go test ./...` re-pins the suite as a reviewable data
// diff and the next plain run passes.
package pins

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"testing"
)

// Path is a package's ledger, relative to the package directory that
// `go test` runs it in.
const Path = "testdata/pins.txt"

// kinds lists the name prefixes an entry may carry.
var kinds = []string{"stats/", "snapshot/", "candidates/", "certificate/", "cli/"}

// Entry is one ledger line.
type Entry struct {
	Name     string
	Digest   string
	Producer string // the top-level test function that calls Check
	Line     int
}

// Parse reads a ledger and refuses a malformed line or a repeated name.
func Parse(r io.Reader) ([]Entry, error) {
	var entries []Entry
	seen := map[string]bool{}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("line %d: want <name> <sha256> <test>, got %q", n, line)
		}
		e := Entry{Name: f[0], Digest: f[1], Producer: f[2], Line: n}
		if !hasKind(e.Name) {
			return nil, fmt.Errorf("line %d: name %q has none of the prefixes %v", n, e.Name, kinds)
		}
		if b, err := hex.DecodeString(e.Digest); err != nil || len(b) != sha256.Size || strings.ToLower(e.Digest) != e.Digest {
			return nil, fmt.Errorf("line %d: %q is not a lower-case hex SHA-256", n, e.Digest)
		}
		if !strings.HasPrefix(e.Producer, "Test") {
			return nil, fmt.Errorf("line %d: producer %q is not a Test function", n, e.Producer)
		}
		if seen[e.Name] {
			return nil, fmt.Errorf("line %d: %s is pinned twice", n, e.Name)
		}
		seen[e.Name] = true
		entries = append(entries, e)
	}
	return entries, sc.Err()
}

func hasKind(name string) bool {
	for _, k := range kinds {
		if strings.HasPrefix(name, k) && len(name) > len(k) {
			return true
		}
	}
	return false
}

// Updating reports whether this run re-pins instead of comparing.
func Updating() bool { return os.Getenv("PINS_UPDATE") == "1" }

// Sum returns the hex SHA-256 of b.
func Sum(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// SumJSON returns the hex SHA-256 of v's JSON encoding.
func SumJSON(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return Sum(b)
}

// ledger is the package's ledger as this test binary has used it.
var ledger struct {
	once    sync.Once
	err     error
	mu      sync.Mutex
	entries map[string]*Entry
	order   []*Entry
	read    map[string]bool
	moved   map[string]string // name -> new digest, under PINS_UPDATE=1
}

func load() error {
	ledger.once.Do(func() {
		f, err := os.Open(Path)
		if err != nil {
			ledger.err = err
			return
		}
		defer f.Close()
		entries, err := Parse(f)
		if err != nil {
			ledger.err = fmt.Errorf("%s: %w", Path, err)
			return
		}
		ledger.entries = map[string]*Entry{}
		ledger.read = map[string]bool{}
		ledger.moved = map[string]string{}
		for i := range entries {
			ledger.entries[entries[i].Name] = &entries[i]
			ledger.order = append(ledger.order, &entries[i])
		}
	})
	return ledger.err
}

// Check compares got, a hex SHA-256, with the ledger entry name, which the
// calling top-level test must be the producer of. Under PINS_UPDATE=1 a
// different digest is recorded for Main to write instead of failing t.
func Check(t testing.TB, name, got string) {
	t.Helper()
	if err := load(); err != nil {
		t.Fatalf("pins: %v", err)
	}
	ledger.mu.Lock()
	defer ledger.mu.Unlock()
	e, ok := ledger.entries[name]
	if !ok {
		t.Errorf("pins: %s has no entry %s (got %s)", Path, name, got)
		return
	}
	ledger.read[name] = true
	if top, _, _ := strings.Cut(t.Name(), "/"); top != e.Producer {
		t.Errorf("pins: %s:%d: %s is produced by %s, not %s", Path, e.Line, name, e.Producer, top)
	}
	if got == e.Digest {
		return
	}
	if Updating() {
		ledger.moved[name] = got
		return
	}
	t.Errorf("pins: %s is %s, pinned %s (%s:%d; PINS_UPDATE=1 go test re-pins)", name, got, e.Digest, Path, e.Line)
}

// Main runs the package's tests. It then fails an unfiltered run that left
// an entry unchecked, and under PINS_UPDATE=1 writes every moved digest to
// the ledger and fails with the list of moves, so that `go test` shows it.
// Call it from TestMain: os.Exit(pins.Main(m)).
func Main(m *testing.M) int {
	code := m.Run()
	if err := load(); err != nil {
		fmt.Fprintf(os.Stderr, "pins: %v\n", err)
		return 1
	}
	if unfiltered() {
		for _, e := range ledger.order {
			if !ledger.read[e.Name] {
				fmt.Fprintf(os.Stderr, "pins: %s:%d: %s (%s) was checked by no test\n", Path, e.Line, e.Name, e.Producer)
				code = 1
			}
		}
	}
	if len(ledger.moved) == 0 {
		return code
	}
	if err := rewrite(); err != nil {
		fmt.Fprintf(os.Stderr, "pins: %v\n", err)
		return 1
	}
	fmt.Printf("pins: rewrote %d entries of %s; run go test again without PINS_UPDATE:\n", len(ledger.moved), Path)
	for _, e := range ledger.order {
		if d, ok := ledger.moved[e.Name]; ok {
			fmt.Printf("%s %s → %s\n", e.Name, e.Digest, d)
		}
	}
	return 1
}

// unfiltered reports whether every test of the package ran: no -run,
// -skip or -list selected some, and this is not a fuzzing worker, which
// runs none.
func unfiltered() bool {
	for _, name := range []string{"test.run", "test.skip", "test.list"} {
		if f := flag.Lookup(name); f != nil && f.Value.String() != "" {
			return false
		}
	}
	f := flag.Lookup("test.fuzzworker")
	return f == nil || f.Value.String() != "true"
}

// rewrite replaces the digest of each moved entry on its own line, leaving
// every other byte of the ledger as it was.
func rewrite() error {
	b, err := os.ReadFile(Path)
	if err != nil {
		return err
	}
	lines := strings.SplitAfter(string(b), "\n")
	for _, e := range ledger.order {
		if d, ok := ledger.moved[e.Name]; ok {
			lines[e.Line-1] = strings.Replace(lines[e.Line-1], e.Digest, d, 1)
		}
	}
	return os.WriteFile(Path, []byte(strings.Join(lines, "")), 0o644)
}
