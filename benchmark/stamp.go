package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// stamp identifies the machine and build behind a set of host times.
// Times are comparable only between equal stamps (Commit aside).
type stamp struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit,omitempty"`
}

func machineStamp() stamp {
	return stamp{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     gitCommit(),
	}
}

func (s stamp) String() string {
	commit := s.Commit
	if commit == "" {
		commit = "unknown"
	}
	return fmt.Sprintf("%s %s/%s, cpu %q, nproc %d, GOMAXPROCS %d, commit %s",
		s.GoVersion, s.GOOS, s.GOARCH, s.CPUModel, s.NProc, s.GOMAXPROCS, commit)
}

// machineDiff lists the fields that make s and o different machines.
func (s stamp) machineDiff(o stamp) []string {
	var d []string
	add := func(field string, a, b any) {
		if a != b {
			d = append(d, fmt.Sprintf("%s %v vs %v", field, a, b))
		}
	}
	add("go_version", s.GoVersion, o.GoVersion)
	add("goos", s.GOOS, o.GOOS)
	add("goarch", s.GOARCH, o.GOARCH)
	add("cpu_model", s.CPUModel, o.CPUModel)
	add("nproc", s.NProc, o.NProc)
	add("gomaxprocs", s.GOMAXPROCS, o.GOMAXPROCS)
	return d
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit returns HEAD of the repository the benchmark runs from, or ""
// when the working directory is not a git checkout.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return ""
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
