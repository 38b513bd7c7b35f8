package specvet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"smoothproc/internal/netgen"
)

// vetDigest hashes the JSON of every source's findings, eliminations
// and plan, each after its name, in the order given.
func vetDigest(t *testing.T, names, srcs []string) string {
	t.Helper()
	h := sha256.New()
	for i, src := range srcs {
		r := Vet(src)
		b, err := json.Marshal(specReport{File: names[i], Findings: r.Findings, Eliminations: r.Eliminations, Plan: r.Plan})
		if err != nil {
			t.Fatal(err)
		}
		h.Write(append(b, '\n'))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestVetDigest pins Vet's output, byte for byte, over every shipped
// and generated spec and a 192-instance corpus draw. The digests were
// computed before the upload's artifacts were built once each (one VM
// session per probed side, the planner on the program's combined
// description, elimination verdicts without the reduced system, tagged
// pairs packed), so a change to what Vet reports fails here, not in
// a golden's diff.
func TestVetDigest(t *testing.T) {
	var files []string
	for _, pattern := range []string{"*.eq", filepath.Join("generated", "*.eq")} {
		matched, err := filepath.Glob(filepath.Join("..", "..", "specs", pattern))
		if err != nil || len(matched) == 0 {
			t.Fatalf("no specs match %s: %v", pattern, err)
		}
		files = append(files, matched...)
	}
	sort.Strings(files)
	var names, srcs []string
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		names, srcs = append(names, filepath.Base(file)), append(srcs, string(src))
	}
	ins, err := netgen.Corpus("all", 1_000_000, 192)
	if err != nil {
		t.Fatal(err)
	}
	var corpusNames, corpusSrcs []string
	for _, in := range ins {
		corpusNames, corpusSrcs = append(corpusNames, in.Name), append(corpusSrcs, in.Source)
	}
	for _, c := range []struct {
		set, got, want string
	}{
		{"specs", vetDigest(t, names, srcs), "cd65c72841366f6208d0b40502e917eff8c94a2b4f5fa6395039dcc25e25b901"},
		{"corpus", vetDigest(t, corpusNames, corpusSrcs), "8991175d82b6988e12162d4c0b27676f0da57fc3c9096e8abd1f3ba551496408"},
	} {
		if c.got != c.want {
			t.Errorf("%s: Vet digest %s, want %s", c.set, c.got, c.want)
		}
	}
}
