package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// environment describes the machine and build the run measured on.
func environment() string {
	return fmt.Sprintf("GOMAXPROCS=%d nproc=%d cpu=%q go=%s commit=%s os=%s/%s",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), commit(), runtime.GOOS, runtime.GOARCH)
}

// cpuModel reads the processor name the kernel reports, or "unknown".
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

// commit is the revision the binary was built from, as the go command
// stamped it, or "unknown" outside a version-controlled checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}
