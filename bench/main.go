// Command cdcs-bench is the repository's end-to-end benchmark. It drives
// the real serving stack in-process over loopback — server.New behind an
// httptest listener, cdcs.SweepDistributed over three peered replicas —
// with closed-loop clients, times a fixed window after an untimed warm-up,
// verifies every reply, and prints each metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Run one workload, as a regression check does:
//
//	bash bench/run.sh --workload paper-cold --seed 1 --seconds 15 --trace 0
//
// --trace 1 reports the per-layer metrics instead, from a traced replay of
// the same stream, and writes its spans as JSON lines to -spans. Without
// --workload every workload runs, each in its own child process; -repeat N
// does that N times, alternating workloads and seeds, and prints each
// metric's median, quartiles and spread.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args and returns the exit code: 0 when every output verified,
// 1 on a failed verification or error, 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cdcs-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: paper-cold, warm-mixed, kilotile-cold, fleet-sweep or all")
	seed := fs.Int64("seed", 1, "seed of the request streams")
	seconds := fs.Int("seconds", 15, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	spans := fs.String("spans", "", "with -trace 1, write the spans to this file as JSON lines (default .bench_build/spans-<workload>-<seed>.jsonl)")
	repeat := fs.Int("repeat", 0, "run all workloads this many times in child processes and print each metric's spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) || *repeat < 0 {
		fmt.Fprintln(stderr, "cdcs-bench: bad arguments (see -h)")
		return 2
	}
	window := time.Duration(*seconds) * time.Second
	if *name == "all" || *repeat > 0 {
		return runChildren(*name, *seed, *seconds, *trace, *repeat, stdout, stderr)
	}
	def, ok := findWorkload(*name, fullScale)
	if !ok {
		fmt.Fprintf(stderr, "cdcs-bench: unknown workload %q\n", *name)
		return 2
	}
	fmt.Fprintf(stdout, "workload %s: %s\n", def.name, def.why)
	fmt.Fprintf(stdout, "seed %d, window %ds, trace %d\n", *seed, *seconds, *trace)
	rep, err := runWorkload(def, *seed, window, *trace == 1, fullScale)
	if err != nil {
		fmt.Fprintf(stderr, "cdcs-bench: %v\n", err)
		return 1
	}
	if *trace == 1 {
		path := *spans
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", def.name, *seed))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				fmt.Fprintf(stderr, "cdcs-bench: %v\n", err)
				return 1
			}
		}
		if err := writeSpans(path, rep.spans); err != nil {
			fmt.Fprintf(stderr, "cdcs-bench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(rep.spans), path)
	}
	printReport(stdout, rep)
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// resultLine is the JSON object on the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printReport(w io.Writer, rep *report) {
	for _, n := range rep.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	line := resultLine{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, d := range rep.defs {
		x := rep.values[d.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		fmt.Fprintf(w, "%-34s %14.6g %s\n", d.name, x, d.unit)
		line.Metrics[d.name] = metricValue{Value: x, Unit: d.unit}
	}
	fmt.Fprintf(w, "attempted %d, failed %d\n", rep.attempted, rep.failed)
	for _, e := range rep.errs {
		fmt.Fprintf(w, "  failure: %s\n", e)
	}
	b, _ := json.Marshal(line) // plain structs of numbers and strings
	fmt.Fprintln(w, string(b))
}

// workloadNames lists every workload in run order.
func workloadNames() []string {
	var out []string
	for _, w := range workloads(fullScale) {
		out = append(out, w.name)
	}
	return out
}

// runChildren runs workloads in child processes of this binary, so memory
// and GC state never carry from one workload into the next. With repeat,
// round r runs every workload with seed+r, in an order that rotates each
// round.
func runChildren(name string, seed int64, seconds, trace, repeat int, stdout, stderr io.Writer) int {
	names := workloadNames()
	if name != "all" {
		if _, ok := findWorkload(name, fullScale); !ok {
			fmt.Fprintf(stderr, "cdcs-bench: unknown workload %q\n", name)
			return 2
		}
		names = []string{name}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "cdcs-bench: %v\n", err)
		return 1
	}
	rounds := max(repeat, 1)
	all := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	series := map[string]map[string][]float64{} // workload -> metric -> values
	units := map[string]string{}
	code := 0
	for r := 0; r < rounds; r++ {
		for k := range names {
			w := names[(k+r)%len(names)]
			s := seed + int64(r)
			args := []string{"-workload", w, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace)}
			var out bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout = io.MultiWriter(&out, stdout)
			cmd.Stderr = stderr
			runErr := cmd.Run()
			res, perr := lastLine(out.Bytes())
			if perr != nil {
				fmt.Fprintf(stderr, "cdcs-bench: %s seed %d: no result (%v, %v)\n", w, s, runErr, perr)
				all.Correct = false
				code = 1
				continue
			}
			if runErr != nil || !res.Correct {
				all.Correct = false
				code = 1
			}
			all.Attempted += res.Attempted
			all.Failed += res.Failed
			if series[w] == nil {
				series[w] = map[string][]float64{}
			}
			for m, v := range res.Metrics {
				all.Metrics[w+"."+m] = v
				series[w][m] = append(series[w][m], v.Value)
				units[m] = v.Unit
			}
		}
	}
	if repeat > 0 {
		printSpreads(stdout, names, series, units)
	}
	b, _ := json.Marshal(all)
	fmt.Fprintln(stdout, string(b))
	return code
}

// lastLine parses the result object on the last non-empty line.
func lastLine(out []byte) (resultLine, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var res resultLine
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, err
	}
	return res, nil
}

// printSpreads prints, per workload and metric, the median, the quartiles,
// the interquartile range and the full range, each as a share of the
// median.
func printSpreads(w io.Writer, names []string, series map[string]map[string][]float64, units map[string]string) {
	fmt.Fprintf(w, "\n%-14s %-34s %12s %12s %12s %9s %9s %s\n", "workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "unit")
	for _, wl := range names {
		ms := make([]string, 0, len(series[wl]))
		for m := range series[wl] {
			ms = append(ms, m)
		}
		sort.Strings(ms)
		for _, m := range ms {
			v := series[wl][m]
			q1, med, q3 := quartiles(v)
			lo, hi := v[0], v[0]
			for _, x := range v {
				lo, hi = min(lo, x), max(hi, x)
			}
			fmt.Fprintf(w, "%-14s %-34s %12.6g %12.6g %12.6g %9.4f %9.4f %s\n",
				wl, m, med, q1, q3, ratio(q3-q1, math.Abs(med)), ratio(hi-lo, math.Abs(med)), units[m])
		}
	}
}
