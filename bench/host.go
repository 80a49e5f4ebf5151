package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// host is the recorded-host block of every result: a number counts only
// with the machine that produced it.
type host struct {
	CPU               string `json:"cpu"`
	NProc             int    `json:"nproc"`
	ServerGOMAXPROCS  int    `json:"server_gomaxprocs"`
	LoadgenGOMAXPROCS int    `json:"loadgen_gomaxprocs"`
	Go                string `json:"go"`
	Kernel            string `json:"kernel"`
	Commit            string `json:"commit"`
	Dirty             bool   `json:"dirty"`
}

func hostInfo(root string) host {
	h := host{
		CPU:               "unknown",
		NProc:             runtime.NumCPU(),
		ServerGOMAXPROCS:  runtime.NumCPU(),
		LoadgenGOMAXPROCS: min(runtime.NumCPU(), clients),
		Go:                runtime.Version(),
		Commit:            "unknown",
	}
	// The server is spawned with the bench's environment and sets no
	// GOMAXPROCS itself.
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		h.ServerGOMAXPROCS = v
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(raw))
	}
	// Only the root's own repository counts: a checkout without .git may
	// sit inside an unrelated one.
	if raw, err := exec.Command("git", "-C", root, "rev-parse", "--show-toplevel", "HEAD").Output(); err == nil {
		if top, head, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n"); ok && top == root {
			h.Commit = head
			if st, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil {
				h.Dirty = len(strings.TrimSpace(string(st))) > 0
			}
		}
	}
	return h
}

func (h host) String() string {
	dirty := ""
	if h.Dirty {
		dirty = "+dirty"
	}
	return fmt.Sprintf("host: %s, nproc=%d, GOMAXPROCS server=%d loadgen=%d, %s, kernel %s, commit %s%s",
		h.CPU, h.NProc, h.ServerGOMAXPROCS, h.LoadgenGOMAXPROCS, h.Go, h.Kernel, h.Commit, dirty)
}
