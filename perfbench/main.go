// Command perfbench is FuseCU's end-to-end and per-layer benchmark. It boots
// an in-process fleet (fleetSize fusecu-serve replicas behind fusecu-route,
// every component with its default settings), drives one seeded workload
// through the public client package, checks every answer against an
// in-process oracle, and prints one JSON result line:
//
//	perfbench --workload search-hot --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// replays the workload one request at a time, records spans around the
// calls into each layer, and reports the per-layer split. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errInvalid marks a run whose measurement cannot be trusted (the load
// generator ran late); it is reported instead of a result.
var errInvalid = errors.New("invalid run")

func main() {
	if n, err := strconv.Atoi(os.Getenv(awakeEnv)); err == nil {
		spinAwake(n) // the child keepAwake starts; it never returns
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the generated request stream")
	seconds := fs.Float64("seconds", 30, "measured time of the run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer split")
	out := fs.String("out", ".bench_build/perfbench", "directory for the span dump of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	ctx := context.Background()
	stopAwake, err := keepAwake(fleetSize)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer stopAwake()
	var res result
	if *trace == 1 {
		res, err = tracedRun(ctx, w, *seed, *seconds, *out, stderr)
	} else {
		res, err = endToEnd(ctx, w, *seed, *seconds, stderr)
	}
	if errors.Is(err, errInvalid) {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 3
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// A percentile that lands on a failed request reads as missing
			// every limit; JSON has no infinity.
			res.Metrics[k] = metric{Value: 1e12, Unit: m.Unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
