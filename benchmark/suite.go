package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// A results file is the trajectory record: one per PR, named by PR number,
// never overwritten by a later PR.

const (
	suiteSets       = 2 // full sets per results file
	suiteRunsPerSet = 3 // runs of each workload in a set
	// noisyRetries: a run whose host calibration moved by more than 10 % is
	// repeated at most this many times; the last attempt is kept either way.
	noisyRetries = 2
)

// runRecord is one run of one workload as stored in a results file.
type runRecord struct {
	Info   runInfo `json:"info"`
	Result result  `json:"result"`
}

type resultsFile struct {
	Env struct {
		GoVersion  string `json:"go_version"`
		NumCPU     int    `json:"nproc"`
		GoMaxProcs int    `json:"gomaxprocs"`
		GOOS       string `json:"goos"`
		GOARCH     string `json:"goarch"`
		Date       string `json:"date"`
	} `json:"env"`
	Seed       uint64  `json:"seed"`
	RunSeconds float64 `json:"run_seconds"`
	// Sets[i] holds suiteRunsPerSet untraced runs of every workload.
	Sets [][]runRecord `json:"sets"`
	// Traced holds one traced run of every workload.
	Traced []runRecord `json:"traced"`
}

// runChild runs one workload in a fresh child process of this program and
// parses the two lines it prints.
func runChild(exe string, w *workload, seed uint64, seconds float64, trace int, traceOut string) (*runRecord, error) {
	args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace)}
	if traceOut != "" {
		args = append(args, "-trace-out", traceOut)
	}
	cmd := exec.Command(exe, args...)
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: child: %w\n%s", w.name, err, errBuf.String())
	}
	return parseRun(raw)
}

// parseRun decodes a run's standard output: the information line, then the
// result as the last line.
func parseRun(stdout []byte) (*runRecord, error) {
	var lines [][]byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			lines = append(lines, append([]byte(nil), sc.Bytes()...))
		}
	}
	if len(lines) < 2 {
		return nil, fmt.Errorf("run printed %d lines, want information and result", len(lines))
	}
	var rec runRecord
	var wrap struct {
		Info runInfo `json:"info"`
	}
	if err := json.Unmarshal(lines[len(lines)-2], &wrap); err != nil {
		return nil, fmt.Errorf("information line: %w", err)
	}
	rec.Info = wrap.Info
	if err := json.Unmarshal(lines[len(lines)-1], &rec.Result); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &rec, nil
}

// runSuite runs every workload, one child process at a time and never two
// at once: suiteSets sets of suiteRunsPerSet untraced runs each, then one
// traced pass. A run that fails its checks fails the suite.
func runSuite(log io.Writer, path string, seed uint64, seconds float64) error {
	if _, err := os.Stat(path); err == nil {
		return fmt.Errorf("%s exists: results files are append-only by PR number, pick a new name", path)
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	var rf resultsFile
	rf.Env.GoVersion = runtime.Version()
	rf.Env.NumCPU = runtime.NumCPU()
	rf.Env.GoMaxProcs = runtime.GOMAXPROCS(0)
	rf.Env.GOOS, rf.Env.GOARCH = runtime.GOOS, runtime.GOARCH
	rf.Env.Date = time.Now().UTC().Format(time.RFC3339)
	rf.Seed, rf.RunSeconds = seed, seconds

	one := func(w *workload, trace int, traceOut string) (*runRecord, error) {
		var rec *runRecord
		for try := 0; try <= noisyRetries; try++ {
			var err error
			rec, err = runChild(exe, w, seed, seconds, trace, traceOut)
			if err != nil {
				return nil, err
			}
			if !rec.Result.Correct {
				return nil, fmt.Errorf("%s: run failed its checks: %s", w.name, rec.Info.Error)
			}
			if !rec.Info.Noisy {
				break
			}
			fmt.Fprintf(log, "  %s: noisy host (calibration %.2f -> %.2f ns), repeating\n",
				w.name, rec.Info.CalibBeforeNs, rec.Info.CalibAfterNs)
		}
		return rec, nil
	}

	// The sets are interleaved run by run (set 1, set 2, set 1, ...), so a
	// slow phase of the host falls on both and comparing them stays fair.
	rf.Sets = make([][]runRecord, suiteSets)
	for r := 0; r < suiteRunsPerSet; r++ {
		for i := range workloads {
			w := &workloads[i]
			for set := range rf.Sets {
				rec, err := one(w, 0, "")
				if err != nil {
					return err
				}
				fmt.Fprintf(log, "set %d run %d %-28s %8.0f cycles/s  job p50 %8.2f ms  rss %6.1f MB  setup %.3f s\n",
					set+1, r+1, w.name, rec.Result.Metrics["sim_cycles_per_s"].Value,
					rec.Result.Metrics["job_p50_ms"].Value, rec.Result.Metrics["peak_rss_mb"].Value,
					rec.Result.Metrics["setup_s"].Value)
				rf.Sets[set] = append(rf.Sets[set], *rec)
			}
		}
	}
	traceDir := filepath.Join(filepath.Dir(path), "trace")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	for i := range workloads {
		w := &workloads[i]
		rec, err := one(w, 1, filepath.Join(traceDir, w.name+".json"))
		if err != nil {
			return err
		}
		fmt.Fprintf(log, "traced %-28s overhead %.3f  core %.2f traffic %.2f protocol %.2f stats %.2f\n", w.name,
			rec.Result.Metrics["trace.overhead_ratio"].Value, rec.Result.Metrics["core.share"].Value,
			rec.Result.Metrics["traffic.share"].Value, rec.Result.Metrics["protocol.share"].Value,
			rec.Result.Metrics["stats.share"].Value)
		rf.Traced = append(rf.Traced, *rec)
	}

	raw, err := json.MarshalIndent(&rf, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(log, "wrote %s (Chrome traces in %s, not for committing)\n", path, traceDir)
	return nil
}

// loadRuns reads the untraced runs of a results file. spec is a path with an
// optional ":N" suffix choosing set N (1-based); without it all sets pool.
func loadRuns(spec string) ([]runRecord, error) {
	path, set := spec, 0
	if i := strings.LastIndexByte(spec, ':'); i > 0 {
		if _, err := fmt.Sscanf(spec[i+1:], "%d", &set); err == nil {
			path = spec[:i]
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if set > len(rf.Sets) || set < 0 {
		return nil, fmt.Errorf("%s has %d sets, no set %d", path, len(rf.Sets), set)
	}
	if set > 0 {
		return rf.Sets[set-1], nil
	}
	var all []runRecord
	for _, s := range rf.Sets {
		all = append(all, s...)
	}
	return all, nil
}
