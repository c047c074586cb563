package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"time"

	"svssba"
)

// runCheck is the -check smoke: the metric catalogue is well-formed and
// equal to BENCHMARK.json, the contract checks fire on planted
// violations, and every workload produces a schema-valid, correct
// result on a 2 s window.
func runCheck() error {
	if err := checkCatalogue(); err != nil {
		return err
	}
	if err := checkAgainstBenchmarkJSON("BENCHMARK.json"); err != nil {
		return err
	}
	if err := checkContractFires(); err != nil {
		return err
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer devnull.Close()
	for _, name := range workloadNames {
		start := time.Now()
		res, err := runWorkload(runOpts{workload: name, seed: 1, seconds: 2, smoke: true}, devnull)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := checkResult(res, endToEnd, true); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("bench: check %-16s ok in %.1fs (attempted=%d)\n", name, time.Since(start).Seconds(), res.Attempted)
	}
	return nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func checkCatalogue() error {
	seen := make(map[string]bool)
	hasSetup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			return fmt.Errorf("metric name %q is malformed", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			return fmt.Errorf("metric %s: unit %q is malformed", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			return fmt.Errorf("metric %s: better=%q", d.Name, d.Better)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		return fmt.Errorf("end-to-end metrics lack setup_s")
	}
	if len(perLayer) > 128 {
		return fmt.Errorf("%d per-layer metrics exceed 128", len(perLayer))
	}
	for _, g := range gated {
		if g.Bound <= 0 || g.Bound > 0.25 {
			return fmt.Errorf("metric %s: bound %v outside (0, 0.25]", g.Name, g.Bound)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 {
			return fmt.Errorf("workload %q: malformed name or why (%d chars)", w.Name, len(w.Why))
		}
	}
	return nil
}

// checkAgainstBenchmarkJSON requires the file to be exactly what -spec
// prints (compared as decoded values, so formatting is free).
func checkAgainstBenchmarkJSON(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("run -check from the repository root: %w", err)
	}
	var got, want any
	if err := json.Unmarshal(raw, &got); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	enc, err := json.Marshal(currentSpec())
	if err != nil {
		return err
	}
	if err := json.Unmarshal(enc, &want); err != nil {
		return err
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s differs from the harness's tables; regenerate it with `go run ./bench -spec > %s`", path, path)
	}
	return nil
}

// checkContractFires plants one violation per workload family and
// requires the verdict to count it.
func checkContractFires() error {
	// Service: node 2 reports the session's value with one byte flipped.
	p := &svcPass{live: []int{1, 2, 3}, ledger: newLedger(), drained: true, baseline: true}
	tag := valueTag{Node: 1, Seq: 1}
	good := makeValue(tag, 64, newRand(1))
	p.ledger.record(tag, good)
	bad := append([]byte(nil), good...)
	bad[40] ^= 0x01
	sk := &sink{}
	for _, id := range p.live {
		v := good
		if id == 2 {
			v = bad
		}
		sk.add(id, 7, []int{1, 2, 3}, [][]byte{v, nil, nil}, 3)
	}
	p.recs = sk.snapshot()
	if v := verify(p); v.failed == 0 {
		return fmt.Errorf("a decision with a flipped byte passed the service contract check")
	}
	// And the same decision everywhere, but not what node 1 submitted.
	sk = &sink{}
	for _, id := range p.live {
		sk.add(id, 7, []int{1, 2, 3}, [][]byte{bad, nil, nil}, 3)
	}
	p.recs = sk.snapshot()
	if v := verify(p); v.failed == 0 {
		return fmt.Errorf("a decided value differing from the submission passed the service contract check")
	}
	// The unplanted version must pass, or the two checks above prove nothing.
	sk = &sink{}
	for _, id := range p.live {
		sk.add(id, 7, []int{1, 2, 3}, [][]byte{good, nil, nil}, 3)
	}
	p.recs = sk.snapshot()
	if v := verify(p); v.failed != 0 {
		return fmt.Errorf("a clean decision failed the service contract check: %v", v.reasons)
	}

	// Simulator: a result that did not agree.
	if checkAgreement(&svssba.Result{AllDecided: true, Agreed: false}) == "" {
		return fmt.Errorf("a simulator result with Agreed=false passed the agreement check")
	}
	if checkAgreement(&svssba.Result{AllDecided: true, Agreed: true}) != "" {
		return fmt.Errorf("a clean simulator result failed the agreement check")
	}
	return nil
}

// checkResult validates one run's final object against the metric
// definitions it must carry; gated marks the end-to-end set.
func checkResult(res *result, defs []metricDef, gated bool) error {
	if !res.Correct || res.Failed != 0 {
		return fmt.Errorf("run not correct: failed=%d", res.Failed)
	}
	if res.Attempted < 1 {
		return fmt.Errorf("attempted=%d", res.Attempted)
	}
	if len(res.Metrics) != len(defs) {
		return fmt.Errorf("%d metrics reported, %d defined", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s missing", d.Name)
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("metric %s: unit %q, want %q", d.Name, m.Unit, d.Unit)
		}
		// Every metric is finite and non-negative; the gated ones are
		// never 0 (a regression bound is a share of the value).
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 || (gated && m.Value == 0) {
			return fmt.Errorf("metric %s: value %v", d.Name, m.Value)
		}
	}
	// The final line must be exactly the four contract keys.
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		return err
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			return fmt.Errorf("result line lacks %q", k)
		}
	}
	if len(keys) != 4 {
		return fmt.Errorf("result line has %d keys, want 4", len(keys))
	}
	return nil
}
