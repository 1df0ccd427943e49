// Command placebench is the placemon benchmark: it boots an in-process
// placemond on a loopback socket, drives one named workload through the
// real client (observe → diagnose → place), checks every answer against
// offline oracles, and prints the end-to-end metrics (or, with -trace 1,
// the per-layer ones) as the last line of its output:
//
//	bash placebench/run.sh --workload ingest-fanout --seed 1 --seconds 45 --trace 0
//
// Inputs come from --seed alone; the same seed gives the same inputs and
// the same printed fingerprint. Any failed check makes the exit code 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("placebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: ingest-fanout or place-revise")
	seed := fs.Int64("seed", 1, "seed every generated input is drawn from")
	seconds := fs.Int("seconds", 45, "measured seconds (phases stretch until each percentile has enough samples)")
	traced := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end ones")
	workdir := fs.String("workdir", ".bench_build", "directory for the run's WAL and scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "placebench: bad arguments (workload %q, seconds %d, trace %d): %v\n", *name, *seconds, *traced, err)
		return 2
	}
	in, err := buildInputs(def, *seed, time.Duration(*seconds)*time.Second)
	if err != nil {
		fmt.Fprintf(stderr, "placebench: build inputs: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "placebench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "placebench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	fmt.Fprintf(stdout, "workload %s seed %d seconds %d trace %d fingerprint %s\n",
		def.name, *seed, *seconds, *traced, in.fingerprint())
	r := newRunner(in, *traced == 1, work)
	if err := r.execute(context.Background()); err != nil {
		fmt.Fprintf(stderr, "placebench: %v\n", err)
		return 1
	}
	rep := r.rep
	for _, line := range rep.lines {
		fmt.Fprintln(stdout, line)
	}
	for _, f := range rep.failures {
		fmt.Fprintf(stdout, "CHECK FAILED: %s\n", f)
	}
	metrics := rep.e2e
	if r.traced {
		metrics = rep.layer
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(rep.failures) == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		fmt.Fprintf(stderr, "placebench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if len(rep.failures) > 0 {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, its human-readable lines (which carry
// every percentile's sample count) and its correctness failures.
type report struct {
	e2e, layer map[string]metric
	lines      []string
	failures   []string
	attempted  int64
	failed     int64
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}}
}

func (r *report) set(m map[string]metric, name string, v float64, unit, note string) {
	m[name] = metric{Value: v, Unit: unit}
	line := fmt.Sprintf("%-32s %14.6g %-6s", name, v, unit)
	if note != "" {
		line += "  " + note
	}
	r.lines = append(r.lines, line)
}

// pct reports the exact q-quantile of samples, scaled by scale, with its
// sample count; too few samples beyond it is an error.
func (r *report) pct(m map[string]metric, name string, samples []float64, q, scale float64, unit string) error {
	v, err := percentile(samples, q)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	r.set(m, name, v*scale, unit, fmt.Sprintf("n=%d", len(samples)))
	return nil
}

func (r *report) check(ok bool, format string, a ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, a...))
	}
}

// sortLines orders the report's lines by metric name for stable output.
func (r *report) sortLines() {
	sort.SliceStable(r.lines, func(i, j int) bool {
		return strings.Fields(r.lines[i])[0] < strings.Fields(r.lines[j])[0]
	})
}
