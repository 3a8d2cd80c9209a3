package experiments

import (
	"context"
	"os"
	"strings"
	"testing"
)

// markdownTables returns, for each "## E<n>" heading of an EXPERIMENTS.md
// text, the first fenced block under it, keyed by the lower-case id ("e1").
func markdownTables(md string) map[string]string {
	tables := map[string]string{}
	id := ""
	lines := strings.Split(md, "\n")
	for i := 0; i < len(lines); i++ {
		if h, ok := strings.CutPrefix(lines[i], "## E"); ok {
			n, _, _ := strings.Cut(h, " ")
			id = "e" + n
			continue
		}
		if lines[i] != "```" || id == "" {
			continue
		}
		var b strings.Builder
		for i++; i < len(lines) && lines[i] != "```"; i++ {
			b.WriteString(lines[i] + "\n")
		}
		tables[id] = b.String()
		id = "" // later blocks in the section are prose examples
	}
	return tables
}

// TestExperimentsMarkdown reruns every experiment at Defaults() and checks
// that EXPERIMENTS.md records its table byte for byte.
func TestExperimentsMarkdown(t *testing.T) {
	md, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	tables := markdownTables(string(md))
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			want, ok := tables[e.ID]
			if !ok {
				t.Fatalf("EXPERIMENTS.md has no fenced table under a \"## %s\" heading", strings.ToUpper(e.ID))
			}
			rep, err := e.Fn(context.Background(), Defaults())
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Table.String(); got != want {
				t.Errorf("EXPERIMENTS.md %s table is stale; the code gives:\n%s", rep.ID, got)
			}
		})
	}
}
