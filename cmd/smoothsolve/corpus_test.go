package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCorpusCheckAllFamilies(t *testing.T) {
	var out, errOut strings.Builder
	// 6 instances = one of each family at seeds 0..5.
	code := run([]string{"corpus", "-family", "all", "-count", "6"},
		strings.NewReader(""), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "cross-check all hold") {
		t.Errorf("output:\n%s", out.String())
	}
	for _, fam := range []string{"dfm-0", "pipeline-1", "mergetree-2", "anomaly-3", "mailbox-4", "ticks-5"} {
		if !strings.Contains(out.String(), fam) {
			t.Errorf("missing round-robin instance %s:\n%s", fam, out.String())
		}
	}
}

func TestCorpusGenerateWritesSpecs(t *testing.T) {
	dir := t.TempDir()
	var out, errOut strings.Builder
	code := run([]string{"corpus", "generate", "-family", "pipeline", "-count", "3", "-out", dir},
		strings.NewReader(""), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for seed := 0; seed < 3; seed++ {
		path := filepath.Join(dir, "pipeline-"+string(rune('0'+seed))+".eq")
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(src), "# generated: family=pipeline") {
			t.Errorf("%s does not look generated:\n%s", path, src)
		}
	}
	// Generated files must themselves be solvable by the main command.
	var out2, errOut2 strings.Builder
	if code := run([]string{filepath.Join(dir, "pipeline-0.eq")}, strings.NewReader(""), &out2, &errOut2); code != 0 {
		t.Fatalf("generated spec does not solve: exit %d: %s", code, errOut2.String())
	}
	if !strings.Contains(out2.String(), "expectations: 1 checked, all hold") {
		t.Errorf("generated expectations not checked:\n%s", out2.String())
	}
}

func TestCorpusGenerateRequiresOut(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"corpus", "generate"}, strings.NewReader(""), &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestCorpusUnknownFamily(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"corpus", "-family", "nope"}, strings.NewReader(""), &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "nope") {
		t.Errorf("stderr should name the family:\n%s", errOut.String())
	}
}

func TestCorpusList(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"corpus", "-list"}, strings.NewReader(""), &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, fam := range []string{"dfm", "pipeline", "mergetree", "anomaly", "mailbox", "ticks"} {
		if !strings.Contains(out.String(), fam) {
			t.Errorf("family %s missing from -list output:\n%s", fam, out.String())
		}
	}
}

func TestCorpusStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress solve is the scheduled CI leg")
	}
	var out, errOut strings.Builder
	// Seed 3 is the calibrated twin-buffer instance the netgen stress
	// tests also use: ~156k nodes, well inside the planner bracket.
	code := run([]string{"corpus", "stress", "-seed", "3"},
		strings.NewReader(""), &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "planner bracket") || !strings.Contains(out.String(), "solved") {
		t.Errorf("output:\n%s", out.String())
	}
}
