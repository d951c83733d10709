// Command servebench is the serving benchmark of guardedrules: it boots
// the real `rulekit serve` binary, drives one of three closed-loop
// workloads over loopback, checks every answer against references it
// computes itself, and prints every metric by name and unit. README.md
// documents the workloads, metrics and flags; run it through run.sh,
// which builds both binaries first:
//
//	bash servebench/run.sh --workload read_hot --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end metrics; with --trace 1 they are the
// per-layer metrics of a traced run. The exit code is non-zero on any
// wrong answer or harness error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

var workloads = []string{"read_hot", "write_live", "compile_cold"}

// endToEndNames are the metrics of an untraced run, as BENCHMARK.json
// lists them.
var endToEndNames = []string{
	"ops_per_s", "read_p50_ms", "read_p99_ms", "write_p50_ms", "write_p99_ms", "delta_lag_p50_ms",
	"compile_p50_ms", "compile_p99_ms", "first_answer_p50_ms", "setup_s", "reopen_s", "rss_peak_mb",
}

func main() {
	cfg := config{trials: trialsPerRun, writeProbe: writeProbeBatches}
	var trace int
	pin := flag.Bool("pin", false, "measure the compile_cold template candidates in-process and print their pins, then exit")
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds of the main phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.serverBin, "server", "", "path of the rulekit binary")
	flag.StringVar(&cfg.outDir, "out", ".bench_out", "directory for run data and span dumps")
	flag.Parse()
	if *pin {
		if err := printPins(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			os.Exit(1)
		}
		return
	}
	cfg.trace = trace == 1
	if cfg.trace {
		cfg.trials = 1
	}
	// The harness's own collector should steal as little CPU from the
	// server as possible; the server keeps its defaults.
	debug.SetGCPercent(400)
	rep, err := benchmark(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	if !rep.Correct {
		os.Exit(1)
	}
}

// benchmark runs one invocation and assembles its report.
func benchmark(cfg config) (*report, error) {
	valid := false
	for _, w := range workloads {
		valid = valid || w == cfg.workload
	}
	if !valid {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
	}
	if cfg.serverBin == "" {
		return nil, fmt.Errorf("-server (the rulekit binary) is required")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if err := r.run(); err != nil {
		return nil, err
	}
	rep := r.endToEnd()
	if cfg.trace {
		perLayer, err := r.traced()
		if err != nil {
			return nil, err
		}
		rep.Metrics = perLayer
		rep.Moves = map[string]string{}
		for _, l := range layers {
			rep.Moves[l.name] = l.moves
		}
		rep.SpanFile = r.spanFile
		rep.Correct, rep.Wrong = len(r.chk.wrong) == 0, r.chk.wrong
	}
	rep.Env = environment()
	rep.writeDetail(cfg)
	return rep, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result of one invocation.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// Detail, written to the out dir and summarized on stdout but kept
	// out of the result line.
	Workload string            `json:"-"`
	Samples  map[string]int    `json:"-"`
	Beyond   map[string]int    `json:"-"`
	Wrong    []string          `json:"-"`
	Failures string            `json:"-"`
	Examples []string          `json:"-"`
	Env      map[string]string `json:"-"`
	Moves    map[string]string `json:"-"`
	SpanFile string            `json:"-"`
	Trials   []string          `json:"-"`
}

// endToEnd assembles the end-to-end metrics of a finished run.
func (r *runner) endToEnd() *report {
	rep := &report{
		Correct:   len(r.chk.wrong) == 0,
		Attempted: r.chk.attempted,
		Failed:    r.chk.failed(),
		Metrics:   map[string]metric{},
		Workload:  r.cfg.workload,
		Samples:   map[string]int{},
		Beyond:    map[string]int{},
		Wrong:     r.chk.wrong,
		Failures:  r.chk.summary(),
		Examples:  r.chk.examples,
		Trials:    r.trialLines,
	}
	set := func(name, unit string, v float64) { rep.Metrics[name] = metric{Value: v, Unit: unit} }
	p99 := func(name string, s samples) {
		set(name, "ms", s.quantile(0.99))
		rep.Samples[name] = len(s)
		rep.Beyond[name] = s.beyond(0.99)
	}
	// Throughput and medians are the median over trials, which shrugs
	// off a trial hit by a burst of machine noise; a p99 needs every
	// trial's samples to have ten beyond it, so it pools them.
	perTrial := func(name, unit string, n int) {
		set(name, unit, median(r.trialVals[name]))
		rep.Samples[name] = n
	}
	perTrial("ops_per_s", "1/s", r.mainOps)
	perTrial("read_p50_ms", "ms", len(r.read))
	p99("read_p99_ms", r.read)
	perTrial("write_p50_ms", "ms", len(r.write))
	p99("write_p99_ms", r.write)
	perTrial("delta_lag_p50_ms", "ms", len(r.lag))
	perTrial("compile_p50_ms", "ms", len(r.compile))
	p99("compile_p99_ms", r.compile)
	perTrial("first_answer_p50_ms", "ms", len(r.first))
	set("setup_s", "s", median(r.setupS))
	rep.Samples["setup_s"] = len(r.setupS)
	set("reopen_s", "s", median(r.reopenS))
	rep.Samples["reopen_s"] = len(r.reopenS)
	set("rss_peak_mb", "MB", median(r.rssS))
	rep.Samples["rss_peak_mb"] = len(r.rssS)
	return rep
}

func (rep *report) print(w *os.File) {
	fmt.Fprintf(w, "workload %s  attempted %d  failed %d  correct %v\n", rep.Workload, rep.Attempted, rep.Failed, rep.Correct)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		line := fmt.Sprintf("  %-34s %14.4f %-6s", n, m.Value, m.Unit)
		if c, ok := rep.Samples[n]; ok {
			line += fmt.Sprintf("  n=%d", c)
			if b, ok := rep.Beyond[n]; ok && strings.HasSuffix(n, "_p99_ms") {
				line += fmt.Sprintf(" beyond=%d", b)
			}
		}
		if mv, ok := rep.Moves[n]; ok {
			line += "  -> " + mv
		}
		fmt.Fprintln(w, line)
	}
	if rep.Failures != "" {
		fmt.Fprintf(w, "  failed ops by class: %s\n", rep.Failures)
		for _, e := range rep.Examples {
			fmt.Fprintf(w, "    e.g. %.300s\n", e)
		}
	}
	for i, e := range rep.Wrong {
		if i == 10 {
			fmt.Fprintf(w, "  ... %d more wrong answers\n", len(rep.Wrong)-10)
			break
		}
		fmt.Fprintf(w, "  WRONG: %s\n", e)
	}
	for _, l := range rep.Trials {
		fmt.Fprintf(w, "  %s\n", l)
	}
	if rep.SpanFile != "" {
		fmt.Fprintf(w, "  spans: %s\n", rep.SpanFile)
	}
	for _, k := range []string{"nproc", "gomaxprocs", "go", "commit", "flush_policy", "serve_flags"} {
		fmt.Fprintf(w, "  env %s: %s\n", k, rep.Env[k])
	}
	blob, _ := json.Marshal(rep)
	fmt.Fprintln(w, string(blob))
}

// writeDetail keeps the run's report with sample counts next to the
// span dumps.
func (rep *report) writeDetail(cfg config) {
	detail := map[string]any{
		"result": rep, "workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds,
		"trace": cfg.trace, "samples": rep.Samples, "beyond_p99": rep.Beyond, "wrong": rep.Wrong,
		"failures": rep.Failures, "env": rep.Env, "moves": rep.Moves,
	}
	blob, _ := json.MarshalIndent(detail, "", "  ")
	name := fmt.Sprintf("%s-seed%d-trace%v.json", cfg.workload, cfg.seed, cfg.trace)
	os.WriteFile(filepath.Join(cfg.outDir, name), blob, 0o644)
}

// environment records what the numbers were measured on.
func environment() map[string]string {
	commit := "unknown (not a git checkout)"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]string{
		"nproc":        fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs":   fmt.Sprint(runtime.GOMAXPROCS(0)) + " (client and server default)",
		"go":           runtime.Version(),
		"commit":       commit,
		"flush_policy": "-sync=false: commits reach the OS page cache, not the disk",
		"serve_flags":  strings.Join(serveFlags, " ") + " -addr 127.0.0.1:0 -data-dir <fresh dir per run>",
		"time":         time.Now().UTC().Format(time.RFC3339),
	}
}
