// Command benchmark is the repository's one serving-and-scan benchmark: four
// workloads against lpathd's server package and the lpath engine on the
// paper-scale corpus, five end-to-end metrics each, and — in a separate
// traced run — the per-layer metrics. See README.md.
//
//	bash benchmark/run.sh -workload serve_hot -seed 1 -seconds 15 -trace 0
//	bash benchmark/run.sh -seed 1 >> a.json            # all workloads, one stamped record each
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

// commit is stamped by run.sh (-ldflags -X).
var commit = "unknown"

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// result is the last line a single-workload run prints: the driver's
// contract.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.Workload, "workload", "", "one of serve_hot, serve_distinct, scan_full, ingest (default: each in its own process, one stamped record per workload)")
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed of the request sequence")
	flag.Float64Var(&cfg.Seconds, "seconds", defaultSeconds, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes out/trace-<workload>.json")
	flag.BoolVar(&cfg.Smoke, "smoke", false, "scale 0.01 corpus and chunks; for a quick look, not for numbers")
	flag.StringVar(&cfg.OutDir, "out", "out", "directory for the corpus snapshot, scratch files and traces")
	compare := flag.Bool("compare", false, "compare two files of stamped records: -compare base.json new.json")
	flag.Parse()
	cfg.Trace = *trace != 0
	cfg.Clients = min(runtime.NumCPU(), 4)

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two files of records")
		} else {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case cfg.Workload == "":
		err = runAll(&cfg)
	default:
		var out *outcome
		if out, err = runWorkload(&cfg); err == nil {
			res := out.result(cfg.Trace)
			if err = json.NewEncoder(os.Stdout).Encode(res); err == nil && !res.Correct {
				err = fmt.Errorf("%s: %d of %d ops failed", cfg.Workload, res.Failed, res.Attempted)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// result attaches the declared unit to every metric.
func (o *outcome) result(trace bool) *result {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	r := &result{Correct: o.Failed == 0, Attempted: o.Attempted, Failed: o.Failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{o.Metrics[d.Name], d.Unit}
	}
	return r
}

// stamp says where and on what a record was measured; -compare refuses to
// compare records whose hosts differ.
type stamp struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	Scale      float64 `json:"scale"`
	CorpusSeed int64   `json:"corpus_seed"`
	Seed       int64   `json:"seed"`
	Ops        int     `json:"ops"`
}

// record is one workload's run as runAll prints it and -compare reads it.
type record struct {
	stamp
	Workload string  `json:"workload"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	result
}

// runAll runs every workload in a process of its own, so that peak_rss_mb
// and setup_s belong to that workload alone, and prints one stamped record
// per workload.
func runAll(cfg *config) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	failed := false
	for _, name := range workloadNames {
		args := []string{
			"-workload", name, "-seed", strconv.FormatInt(cfg.Seed, 10),
			"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64), "-out", cfg.OutDir,
		}
		if cfg.Trace {
			args = append(args, "-trace", "1")
		}
		if cfg.Smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output() // a wrong answer exits non-zero after printing its result
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if jsonErr := json.Unmarshal(lines[len(lines)-1], &res); jsonErr != nil {
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			return fmt.Errorf("%s: reading its result: %w", name, jsonErr)
		}
		failed = failed || !res.Correct
		rec := record{
			stamp: stamp{
				Commit: commit, Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
				Clients: cfg.Clients, Scale: cfg.scale(), CorpusSeed: corpusSeed, Seed: cfg.Seed, Ops: res.Attempted,
			},
			Workload: name, Seconds: cfg.Seconds, Trace: cfg.Trace, result: res,
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("some ops failed; see the records' failed counts")
	}
	return nil
}
