package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// printHeader records the environment and the run's settings, so two runs'
// numbers can be told apart by what produced them.
func printHeader(w io.Writer, cfg config) {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%t\n", cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Trace)
	fmt.Fprintf(w, "# go=%s GOMAXPROCS=%d nproc=%d cpu=%q\n", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
	fmt.Fprintf(w, "# commit=%s\n", commit())
	fmt.Fprintf(w, "# records_per_phase=%d workers=%d clients=%d setup_reps=%d\n", cfg.Records, cfg.Workers, cfg.Clients, cfg.SetupReps)
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

// commit names the code under test: the VCS revision when the build
// recorded one, else a digest of the repository's Go sources, since a
// benchmark checkout need not be a git repository.
func commit() string {
	rev, modified := "", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				modified = "+modified"
			}
		}
	}
	if rev == "" {
		return sourceDigest(".")
	}
	return rev + modified
}

// sourceDigest hashes every .go and go.mod file under root (the checkout
// the benchmark runs from), skipping hidden directories such as the build
// directory.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(data))
		h.Write(data)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
