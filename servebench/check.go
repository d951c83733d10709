package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// The checker splits every op into exactly one of three outcomes:
//
//   - ok: a 200 with an exact answer equal to the reference;
//   - failed: the server did not deliver an exact answer (transport
//     error, non-200 status including 429, a body that does not
//     decode, a truncated or inexact answer, a template whose mode or
//     chain differs from its pin, a dropped subscription). Failures
//     count against ops_failed;
//   - wrong: an exact answer that differs from the reference, a
//     version sequence that skips or goes back, or an SSE stream with a
//     gap. A wrong answer aborts the run with a non-zero exit.
//
// Observations are recorded during the run; references are looked up
// and compared after it, off the timed path.

// queryResp is the /v1/query response body.
type queryResp struct {
	Answers   [][]string `json:"answers"`
	Count     int        `json:"count"`
	Exact     bool       `json:"exact"`
	Truncated bool       `json:"truncated"`
	Reason    string     `json:"reason"`
	Chain     []string   `json:"chain"`
	DBVersion uint64     `json:"db_version"`
}

// decodeQuery turns a query reply into a response, or a failure reason.
func decodeQuery(r reply) (queryResp, string) {
	var q queryResp
	if f := replyFailure(r); f != "" {
		return q, f
	}
	if err := json.Unmarshal(r.body, &q); err != nil {
		return q, "undecodable response body: " + err.Error()
	}
	switch {
	case q.Truncated:
		return q, "truncated answer: " + q.Reason
	case !q.Exact:
		return q, "inexact answer"
	case q.Count != len(q.Answers):
		return q, fmt.Sprintf("count %d but %d answer rows", q.Count, len(q.Answers))
	}
	return q, ""
}

// replyFailure is the failure reason of a transport error or non-200.
func replyFailure(r reply) string {
	if r.err != nil {
		return "transport: " + r.err.Error()
	}
	if r.status != 200 {
		return fmt.Sprintf("status %d: %.200s", r.status, r.body)
	}
	return ""
}

// theoryResp is the /v1/theories response body.
type theoryResp struct {
	ID    string   `json:"id"`
	Mode  string   `json:"mode"`
	Chain []string `json:"chain"`
}

// pinFailure compares a registration and its first plan with the
// template's pins.
func pinFailure(t *template, th theoryResp, firstPlanChain int) string {
	if th.Mode != t.mode || len(th.Chain) != t.chain {
		return fmt.Sprintf("template %s: mode %s chain %d, pinned %s chain %d", t.name, th.Mode, len(th.Chain), t.mode, t.chain)
	}
	if firstPlanChain != t.planChain {
		return fmt.Sprintf("template %s: first plan chain %d, pinned %d", t.name, firstPlanChain, t.planChain)
	}
	return ""
}

// observation is one answer the server delivered, keyed by what it
// must equal: a fixture query, a template, or a (version, query) pair.
type observation struct {
	key string
	ans answerSet
}

// versionKey keys an answer of a mutable DB by the version it was
// computed on.
func versionKey(db string, version uint64, query string) string {
	return fmt.Sprintf("%s@%d|%s", db, version, query)
}

// checker accumulates op outcomes.
type checker struct {
	attempted int
	failures  map[string]int // reason class -> count
	examples  []string       // first few failure reasons
	wrong     []string
	obs       []observation
}

func newChecker() *checker { return &checker{failures: map[string]int{}} }

func (c *checker) failed() int {
	n := 0
	for _, v := range c.failures {
		n += v
	}
	return n
}

// op records one attempted op; a non-empty failure marks it failed.
func (c *checker) op(failure string) {
	c.attempted++
	if failure != "" {
		c.fail(failure)
	}
}

func (c *checker) fail(reason string) {
	class, _, _ := strings.Cut(reason, ":")
	c.failures[class]++
	if len(c.examples) < 5 {
		c.examples = append(c.examples, reason)
	}
}

func (c *checker) wrongf(format string, a ...any) {
	c.wrong = append(c.wrong, fmt.Sprintf(format, a...))
}

// observe records an exact answer for comparison after the run.
func (c *checker) observe(key string, rows [][]string) {
	c.obs = append(c.obs, observation{key: key, ans: canonical(rows)})
}

// judge compares every observation with its reference.
func (c *checker) judge(refs map[string]answerSet) {
	for _, o := range c.obs {
		want, ok := refs[o.key]
		switch {
		case !ok:
			c.wrongf("no reference for %s (answer claims a version or query the benchmark never produced)", o.key)
		case want != o.ans:
			c.wrongf("%s: got %d rows (%s), want %d rows (%s)", o.key, o.ans.N, o.ans.Hash, want.N, want.Hash)
		}
	}
}

// versionLog checks that a single writer's acknowledged versions step
// by exactly one.
type versionLog struct {
	last uint64
}

func (v *versionLog) ack(c *checker, got uint64) {
	if got != v.last+1 {
		c.wrongf("batch acknowledged as version %d after version %d", got, v.last)
	}
	v.last = got
}

// checkStream folds an SSE stream — a snapshot then one delta per
// committed batch — and requires gapless versions, deltas consistent
// with the folded state, and the folded state to equal the reference at
// every version up to lastAck. The stream counts as one op.
func checkStream(c *checker, db, query string, frames []sseFrame, refs map[string]answerSet, lastAck uint64) {
	c.attempted++
	if len(frames) == 0 || frames[0].event != "snapshot" {
		c.fail("subscription: stream did not start with a snapshot")
		return
	}
	state := map[string][]string{}
	for _, r := range frames[0].answers {
		state[strings.Join(r, "\x1f")] = r
	}
	ver := frames[0].version
	compare := func(v uint64) {
		rows := make([][]string, 0, len(state))
		for _, r := range state {
			rows = append(rows, r)
		}
		key := versionKey(db, v, query)
		want, ok := refs[key]
		if !ok {
			c.wrongf("subscription: no reference for version %d", v)
		} else if got := canonical(rows); got != want {
			c.wrongf("subscription: folded state at version %d has %d rows (%s), want %d rows (%s)", v, got.N, got.Hash, want.N, want.Hash)
		}
	}
	compare(ver)
	for _, f := range frames[1:] {
		switch f.event {
		case "delta":
		case "error":
			c.fail("subscription: dropped by server: " + f.errText)
			return
		default:
			c.fail("subscription: unexpected frame " + f.event + " " + f.errText)
			return
		}
		if f.version != ver+1 {
			c.wrongf("subscription: version gap, delta %d after %d", f.version, ver)
			return
		}
		if f.version > lastAck {
			// A batch committed whose acknowledgement the writer never
			// got (a failed request): no reference exists for it.
			c.fail(fmt.Sprintf("subscription: delta %d beyond the last acknowledged version %d", f.version, lastAck))
			return
		}
		ver = f.version
		for _, r := range f.removed {
			k := strings.Join(r, "\x1f")
			if _, ok := state[k]; !ok {
				c.wrongf("subscription: version %d removes absent row %v", ver, r)
			}
			delete(state, k)
		}
		for _, r := range f.added {
			k := strings.Join(r, "\x1f")
			if _, ok := state[k]; ok {
				c.wrongf("subscription: version %d re-adds present row %v", ver, r)
			}
			state[k] = r
		}
		compare(ver)
	}
	if ver != lastAck {
		c.fail(fmt.Sprintf("subscription: stream ended at version %d, last acknowledged %d", ver, lastAck))
	}
}

// summary renders the failure classes for the report.
func (c *checker) summary() string {
	var parts []string
	for k, v := range c.failures {
		parts = append(parts, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}
