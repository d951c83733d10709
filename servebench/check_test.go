package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	testdataDir = filepath.Join("..", "testdata")
	os.Exit(m.Run())
}

var (
	rowsV1 = [][]string{{"v0", "v1"}, {"v1", "v2"}}
	rowsV2 = [][]string{{"v0", "v1"}, {"v1", "v2"}, {"v2", "v0"}}
)

func versionRefs() map[string]answerSet {
	return map[string]answerSet{
		versionKey("live", 1, liveCQ): canonical(rowsV1),
		versionKey("live", 2, liveCQ): canonical(rowsV2),
		versionKey("live", 3, liveCQ): canonical(rowsV1),
	}
}

func TestCheckerCatchesCorruptedRow(t *testing.T) {
	c := newChecker()
	corrupt := [][]string{{"v0", "v1"}, {"v1", "v9"}}
	c.observe(versionKey("live", 1, liveCQ), corrupt)
	c.judge(versionRefs())
	if len(c.wrong) != 1 {
		t.Fatalf("corrupted row not caught: %v", c.wrong)
	}
	// The same rows in another order are the same answer.
	c = newChecker()
	c.observe(versionKey("live", 1, liveCQ), [][]string{rowsV1[1], rowsV1[0]})
	c.judge(versionRefs())
	if len(c.wrong) != 0 {
		t.Fatalf("row order flagged: %v", c.wrong)
	}
}

func TestCheckerCatchesWrongVersion(t *testing.T) {
	c := newChecker()
	// Version 1's answer served under version 2.
	c.observe(versionKey("live", 2, liveCQ), rowsV1)
	// A version the writer never produced.
	c.observe(versionKey("live", 9, liveCQ), rowsV1)
	c.judge(versionRefs())
	if len(c.wrong) != 2 {
		t.Fatalf("want 2 wrong answers, got %v", c.wrong)
	}
	var v versionLog
	v.ack(c, 1)
	v.ack(c, 3)
	if len(c.wrong) != 3 || !strings.Contains(c.wrong[2], "version 3 after version 1") {
		t.Fatalf("skipped acknowledged version not caught: %v", c.wrong)
	}
}

func frame(event string, v uint64, added, removed [][]string) sseFrame {
	return sseFrame{event: event, version: v, added: added, removed: removed}
}

func TestCheckStreamFoldsGaplessDeltas(t *testing.T) {
	c := newChecker()
	frames := []sseFrame{
		{event: "snapshot", version: 1, answers: rowsV1},
		frame("delta", 2, [][]string{{"v2", "v0"}}, nil),
		frame("delta", 3, nil, [][]string{{"v2", "v0"}}),
	}
	checkStream(c, "live", liveCQ, frames, versionRefs(), 3)
	if len(c.wrong) != 0 || c.failed() != 0 {
		t.Fatalf("clean stream flagged: wrong %v failures %v", c.wrong, c.failures)
	}
}

func TestCheckStreamCatchesVersionGap(t *testing.T) {
	c := newChecker()
	frames := []sseFrame{
		{event: "snapshot", version: 1, answers: rowsV1},
		frame("delta", 3, nil, nil),
	}
	checkStream(c, "live", liveCQ, frames, versionRefs(), 3)
	if len(c.wrong) != 1 || !strings.Contains(c.wrong[0], "version gap") {
		t.Fatalf("gap not caught: %v", c.wrong)
	}
}

func TestCheckStreamCatchesBadFold(t *testing.T) {
	c := newChecker()
	frames := []sseFrame{
		{event: "snapshot", version: 1, answers: rowsV1},
		frame("delta", 2, nil, nil), // misses the added row
	}
	checkStream(c, "live", liveCQ, frames, versionRefs(), 2)
	if len(c.wrong) != 1 {
		t.Fatalf("wrong folded state not caught: %v", c.wrong)
	}
}

func TestCheckStreamIncompleteIsFailure(t *testing.T) {
	for name, frames := range map[string][]sseFrame{
		"ends early": {{event: "snapshot", version: 1, answers: rowsV1}},
		// Version 3 committed, but its acknowledgement never reached
		// the writer: there is no reference to fold it against.
		"unacknowledged version": {
			{event: "snapshot", version: 1, answers: rowsV1},
			frame("delta", 2, [][]string{{"v2", "v0"}}, nil),
			frame("delta", 3, nil, [][]string{{"v2", "v0"}}),
		},
		"dropped": {
			{event: "snapshot", version: 1, answers: rowsV1},
			{event: "error", errText: "slow consumer"},
		},
	} {
		c := newChecker()
		checkStream(c, "live", liveCQ, frames, versionRefs(), 2)
		if len(c.wrong) != 0 || c.failed() != 1 {
			t.Errorf("%s: want one failure and no wrong answer, got wrong %v failures %v", name, c.wrong, c.failures)
		}
	}
}

func TestModeFlipIsFailedOp(t *testing.T) {
	tpl := &pinnedTemplates[0]
	for _, th := range []theoryResp{
		{Mode: "chase", Chain: make([]string, tpl.chain)},
		{Mode: tpl.mode, Chain: make([]string, tpl.chain+1)},
	} {
		c := newChecker()
		c.op(pinFailure(tpl, th, tpl.planChain))
		if c.failed() != 1 || len(c.wrong) != 0 {
			t.Fatalf("pin mismatch %+v: failures %v wrong %v", th, c.failures, c.wrong)
		}
	}
	if f := pinFailure(tpl, theoryResp{Mode: tpl.mode, Chain: make([]string, tpl.chain)}, tpl.planChain+1); f == "" {
		t.Fatal("plan chain mismatch not caught")
	}
	if f := pinFailure(tpl, theoryResp{Mode: tpl.mode, Chain: make([]string, tpl.chain)}, tpl.planChain); f != "" {
		t.Fatalf("matching pin flagged: %s", f)
	}
}

func TestTruncatedResponseIsFailedOp(t *testing.T) {
	full := `{"answers":[["v0","v1"]],"count":1,"exact":true,"db_version":1}`
	for name, r := range map[string]reply{
		"cut body":      {status: 200, body: []byte(full[:len(full)/2])},
		"budget cut":    {status: 200, body: []byte(`{"answers":[],"count":0,"exact":false,"truncated":true,"reason":"budget"}`)},
		"inexact":       {status: 200, body: []byte(`{"answers":[],"count":0,"exact":false}`)},
		"count too big": {status: 200, body: []byte(`{"answers":[],"count":3,"exact":true}`)},
		"shed":          {status: 429, body: []byte(`{"error":"saturated"}`)},
	} {
		c := newChecker()
		_, f := decodeQuery(r)
		c.op(f)
		if c.failed() != 1 || len(c.wrong) != 0 || len(c.obs) != 0 {
			t.Errorf("%s: want a failed op, got failures %v wrong %v", name, c.failures, c.wrong)
		}
	}
	if q, f := decodeQuery(reply{status: 200, body: []byte(full)}); f != "" || len(q.Answers) != 1 {
		t.Fatalf("good reply rejected: %q", f)
	}
}

func TestTemplatesMatchPins(t *testing.T) {
	for i := range pinnedTemplates {
		tpl := &pinnedTemplates[i]
		inst, err := instantiate(tpl, freshSuffix(3, "t", i))
		if err != nil {
			t.Fatal(err)
		}
		ans, err := templateAnswers(inst)
		if err != nil {
			t.Fatal(err)
		}
		if ans.N != tpl.answers || ans.Hash != tpl.hash {
			t.Errorf("%s: reference %d rows (%s), pinned %d (%s)", tpl.name, ans.N, ans.Hash, tpl.answers, tpl.hash)
		}
	}
}

// TestShortRunAllWorkloads builds rulekit and runs every workload for
// one second, untraced and traced, against the real server.
func TestShortRunAllWorkloads(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "rulekit")
	if out, err := exec.Command("go", "build", "-o", bin, "guardedrules/cmd/rulekit").CombinedOutput(); err != nil {
		t.Fatalf("build rulekit: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w, seed: 5, seconds: 1, trace: trace, serverBin: bin,
				outDir: filepath.Join(dir, "out"), trials: 1, writeProbe: 20}
			rep, err := benchmark(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct %v attempted %d failed %d (%s) wrong %v", w, trace, rep.Correct, rep.Attempted, rep.Failed, rep.Failures, rep.Wrong)
			}
			want := len(endToEndNames)
			if trace {
				want = len(layers)
			}
			if len(rep.Metrics) != want {
				t.Fatalf("%s trace=%v: %d metrics, want %d", w, trace, len(rep.Metrics), want)
			}
		}
	}
}

// TestBenchmarkJSONNamesMetrics keeps BENCHMARK.json and the report in
// step: every workload it names is one the benchmark runs (compile_cold
// runs but is left out, see README.md), and every end-to-end and
// per-layer metric the benchmark prints is declared there, with the
// same unit.
func TestBenchmarkJSONNamesMetrics(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Errorf("workload %s: benchmark runs only %v", w.Name, workloads)
		}
	}
	r := &runner{chk: newChecker(), cfg: config{workload: "read_hot"}, mainDur: 1}
	rep := r.endToEnd()
	if len(spec.EndToEnd) != len(rep.Metrics) || len(spec.EndToEnd) != len(endToEndNames) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, report has %d", len(spec.EndToEnd), len(rep.Metrics))
	}
	for _, m := range spec.EndToEnd {
		if rep.Metrics[m.Name].Unit != m.Unit {
			t.Errorf("end-to-end %s: unit %q, report %q", m.Name, m.Unit, rep.Metrics[m.Name].Unit)
		}
	}
	if len(spec.PerLayer) != len(layers) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, benchmark has %d", len(spec.PerLayer), len(layers))
	}
	for i, m := range spec.PerLayer {
		if i < len(layers) && (layers[i].name != m.Name || layers[i].unit != m.Unit) {
			t.Errorf("per-layer %d: %s %s, benchmark %s %s", i, m.Name, m.Unit, layers[i].name, layers[i].unit)
		}
	}
}
