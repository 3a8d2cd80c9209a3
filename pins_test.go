package repro_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/pins"
)

// digestLiteral matches a hex SHA-256 as the ledgers write it.
var digestLiteral = regexp.MustCompile(`[0-9a-f]{64}`)

// TestNoDigestLiteralsOutsideLedgers keeps every pinned digest in a
// testdata/pins.txt ledger, where one PINS_UPDATE=1 run re-pins it: a
// 64-hex literal in a _test.go file or in the CI workflow would be a pin
// that only a hand edit moves.
func TestNoDigestLiteralsOutsideLedgers(t *testing.T) {
	files := append(repoFiles(t, "_test.go"), ".github/workflows/ci.yml")
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if lit := digestLiteral.FindString(line); lit != "" {
				t.Errorf("%s:%d: digest literal %s; pin it in the package's %s", file, i+1, lit, pins.Path)
			}
		}
	}
}

// TestLedgerProducersExist: every ledger parses, names for each entry a
// Test function that its package declares, and belongs to a package whose
// TestMain (pins.Main) fails a run that leaves an entry unchecked.
func TestLedgerProducersExist(t *testing.T) {
	ledgers := repoFiles(t, "/"+pins.Path)
	if len(ledgers) == 0 {
		t.Fatal("no ledger found")
	}
	for _, ledger := range ledgers {
		f, err := os.Open(ledger)
		if err != nil {
			t.Fatal(err)
		}
		entries, err := pins.Parse(f)
		f.Close()
		if err != nil {
			t.Errorf("%s: %v", ledger, err)
			continue
		}
		pkg := "./" + strings.TrimSuffix(ledger, "/"+pins.Path)
		funcs := testFuncs(t, pkg)
		if !slices.Contains(funcs, "TestMain") {
			t.Errorf("%s: package %s has no TestMain calling pins.Main", ledger, pkg)
		}
		for _, e := range entries {
			if !slices.Contains(funcs, e.Producer) {
				t.Errorf("%s:%d: %s names producer %s, which %s does not declare", ledger, e.Line, e.Name, e.Producer, pkg)
			}
		}
	}
}

// repoFiles returns the slash-separated paths of the repository's files
// that end in suffix, outside hidden directories.
func repoFiles(t *testing.T, suffix string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if path = filepath.ToSlash(path); strings.HasSuffix(path, suffix) {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
