package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSelectedExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quick", "-exp", "e5"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "== E5:") {
		t.Fatalf("missing E5 header:\n%s", text)
	}
	if strings.Contains(text, "== E1:") {
		t.Fatal("unselected experiment ran")
	}
}

func TestRunMarkdownFences(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quick", "-exp", "e5", "-markdown"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Count(out.String(), "```") != 2 {
		t.Fatalf("markdown fences wrong:\n%s", out.String())
	}
}

// TestRunUnknownExperiment: an unknown id fails the run before any
// experiment starts, also when it follows a valid one.
func TestRunUnknownExperiment(t *testing.T) {
	for _, list := range []string{"e99", "e1,e99"} {
		var out bytes.Buffer
		err := run([]string{"-quick", "-exp", list}, &out)
		if err == nil {
			t.Fatalf("-exp %s: unknown experiment accepted", list)
		}
		if !strings.Contains(err.Error(), "e1") {
			t.Fatalf("error does not list available ids: %v", err)
		}
		if out.Len() != 0 {
			t.Fatalf("-exp %s: experiments ran before the bad id was rejected:\n%s", list, out.String())
		}
	}
}

func TestRunMultipleSelection(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quick", "-exp", "e5, E9"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "== E5:") || !strings.Contains(out.String(), "== E9:") {
		t.Fatal("case/space-insensitive selection failed")
	}
}

func TestRunRadixOverride(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quick", "-exp", "e12", "-radix", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "16 nodes") {
		t.Fatalf("radix override not reflected:\n%s", out.String())
	}
}

func TestRunHeadlineMode(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-headline", "3", "-quick"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "95% CI, 3 seeds") {
		t.Fatalf("headline output: %q", text)
	}
	if !strings.Contains(text, "verdict:") {
		t.Fatal("no verdict printed")
	}
}
