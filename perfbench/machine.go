package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"smoothproc/internal/service"
)

// machine describes where a result was measured. Absolute numbers are
// only comparable between results with equal machine lines.
func machine(root string) string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d goarch=%s cpu=%q go=%s commit=%s source=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOARCH, cpuModel(), runtime.Version(), commit(root), sourceDigest(root))
}

// cpuTimes reads the machine-wide CPU time counters of /proc/stat: the
// time the hypervisor gave to other guests (steal), and the total. Both
// read 0 where /proc/stat is missing.
func cpuTimes() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git without running git;
// a source tree without .git reports "unknown".
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest names the measured code when there is no commit: the
// SHA-256 of every .go, .mod and .eq file under root, by path.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not name the code
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		switch filepath.Ext(p) {
		case ".go", ".mod", ".eq":
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// effectiveConfig reads the config a server runs with, defaults
// applied, and whether it evaluates on bytecode. The service exports no
// accessor, so the fields are read by reflection; a field that is gone
// reads "?".
func effectiveConfig(srv *service.Server) (desc string, compiled bool) {
	cfg := reflect.ValueOf(srv).Elem().FieldByName("cfg")
	field := func(name string) reflect.Value {
		if !cfg.IsValid() {
			return reflect.Value{}
		}
		return cfg.FieldByName(name)
	}
	var b strings.Builder
	for _, name := range []string{"Workers", "QueueDepth", "Compiled", "SpecCacheSize", "ResultCacheSize",
		"SessionCacheSize", "MaxDepth", "MaxNodes", "NoVisited", "TenantMaxQueued", "TenantMaxRunning", "TenantNodeBudget"} {
		v := "?"
		switch f := field(name); f.Kind() {
		case reflect.Int, reflect.Int64:
			v = fmt.Sprint(f.Int())
		case reflect.Uint64:
			v = fmt.Sprint(f.Uint())
		case reflect.Bool:
			v = fmt.Sprint(f.Bool())
		}
		fmt.Fprintf(&b, "%s=%s ", name, v)
	}
	f := field("Compiled")
	return strings.TrimSpace(b.String()), f.Kind() == reflect.Bool && f.Bool()
}
