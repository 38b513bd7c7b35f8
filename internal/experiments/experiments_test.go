package experiments

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAllExperimentsPass is the repository's reproduction gate: every
// indexed artefact of the paper must measure as claimed, and
// EXPERIMENTS.md's results table must be exactly what the experiments
// measure (`go run ./cmd/repro -markdown`).
func TestAllExperimentsPass(t *testing.T) {
	tab := RunAll(context.Background())
	for _, row := range tab.Rows() {
		if !row.Pass {
			t.Errorf("%s (%s): %s", row.ID, row.Artefact, row.Measured)
		}
	}
	if len(tab.Rows()) != 23 {
		t.Errorf("%d experiments, want 23", len(tab.Rows()))
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	got, want := experimentRows(tab.Markdown()), experimentRows(string(doc))
	if len(got) != len(want) {
		t.Fatalf("EXPERIMENTS.md has %d experiment rows, the experiments %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("EXPERIMENTS.md row %d is stale:\n file: %s\n runs: %s", i+1, want[i], got[i])
		}
	}
}

// experimentRows returns the markdown table rows of md that describe an
// experiment, in order.
func experimentRows(md string) []string {
	var rows []string
	for _, line := range strings.Split(md, "\n") {
		if strings.HasPrefix(line, "| E") {
			rows = append(rows, line)
		}
	}
	return rows
}

func TestIDsAreUniqueAndOrdered(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if !strings.HasPrefix(e.ID, "E") {
			t.Errorf("bad id %s", e.ID)
		}
		if e.Claim == "" || e.Artefact == "" || e.Run == nil {
			t.Errorf("%s: incomplete experiment", e.ID)
		}
	}
	if len(IDs()) != 23 {
		t.Errorf("IDs() = %d", len(IDs()))
	}
}
