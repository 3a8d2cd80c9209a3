package experiments

import (
	"context"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/pins"
)

// fence is the line range [from, to) of a fenced block's body.
type fence struct{ from, to int }

// body returns the block's text, each line ending in a newline.
func (f fence) body(lines []string) string {
	var b strings.Builder
	for _, l := range lines[f.from:f.to] {
		b.WriteString(l + "\n")
	}
	return b.String()
}

// markdownTables returns, for each "## E<n>" heading of an EXPERIMENTS.md
// text's lines, the first fenced block under it, keyed by the lower-case id
// ("e1").
func markdownTables(lines []string) map[string]fence {
	tables := map[string]fence{}
	id := ""
	for i := 0; i < len(lines); i++ {
		if h, ok := strings.CutPrefix(lines[i], "## E"); ok {
			n, _, _ := strings.Cut(h, " ")
			id = "e" + n
			continue
		}
		if lines[i] != "```" || id == "" {
			continue
		}
		from := i + 1
		for i++; i < len(lines) && lines[i] != "```"; i++ {
		}
		tables[id] = fence{from, i}
		id = "" // later blocks in the section are prose examples
	}
	return tables
}

// TestExperimentsMarkdown reruns every experiment at Defaults() and checks
// that EXPERIMENTS.md records its table byte for byte. With PINS_UPDATE=1
// it instead rewrites each stale table once every experiment has run, and
// fails naming them so that the next plain run confirms the rewrite.
func TestExperimentsMarkdown(t *testing.T) {
	const path = "../../EXPERIMENTS.md"
	md, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(md), "\n")
	tables := markdownTables(lines)
	var mu sync.Mutex
	stale := map[string]string{} // id -> the code's table, under PINS_UPDATE=1
	t.Cleanup(func() {
		if len(stale) == 0 {
			return
		}
		ids := make([]string, 0, len(stale))
		for id := range stale {
			ids = append(ids, id)
		}
		// Splice from the last table up, so earlier line ranges hold.
		sort.Slice(ids, func(i, j int) bool { return tables[ids[i]].from > tables[ids[j]].from })
		for _, id := range ids {
			f := tables[id]
			lines = slices.Replace(lines, f.from, f.to, strings.Split(strings.TrimSuffix(stale[id], "\n"), "\n")...)
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
			t.Fatal(err)
		}
		slices.Reverse(ids)
		t.Errorf("rewrote the stale EXPERIMENTS.md tables %s; run go test again without PINS_UPDATE", strings.ToUpper(strings.Join(ids, " ")))
	})
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			f, ok := tables[e.ID]
			if !ok {
				t.Fatalf("EXPERIMENTS.md has no fenced table under a \"## %s\" heading", strings.ToUpper(e.ID))
			}
			rep, err := e.Fn(context.Background(), Defaults())
			if err != nil {
				t.Fatal(err)
			}
			got := rep.Table.String()
			switch {
			case got == f.body(lines):
			case pins.Updating():
				mu.Lock()
				stale[e.ID] = got
				mu.Unlock()
			default:
				t.Errorf("EXPERIMENTS.md %s table is stale; the code gives:\n%s", rep.ID, got)
			}
		})
	}
}
