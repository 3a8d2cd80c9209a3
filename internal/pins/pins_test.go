package pins

import (
	"strings"
	"testing"
)

// TestParse reads a well-formed ledger and refuses each malformed line.
func TestParse(t *testing.T) {
	d := strings.Repeat("0a", 32)
	entries, err := Parse(strings.NewReader("# name sha256 test\n\nstats/a/b " + d + " TestA\n"))
	if err != nil {
		t.Fatal(err)
	}
	if want := (Entry{Name: "stats/a/b", Digest: d, Producer: "TestA", Line: 3}); len(entries) != 1 || entries[0] != want {
		t.Fatalf("entries = %+v, want [%+v]", entries, want)
	}
	for _, bad := range []string{
		"stats/a " + d,                             // no producer
		"stats/a " + d + " TestA extra",            // a fourth field
		"run/a " + d + " TestA",                    // no known kind
		"stats/ " + d + " TestA",                   // a kind alone
		"stats/a " + strings.ToUpper(d) + " TestA", // upper-case hex
		"stats/a " + d[:62] + " TestA",             // 31 bytes
		"stats/a " + d + " helper",                 // not a Test function
		"stats/a " + d + " TestA\nstats/a " + d + " TestB",
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("Parse accepted %q", bad)
		}
	}
}
