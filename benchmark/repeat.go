package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// repeatMode launches this binary k times per workload, each launch a
// fresh process, and prints for every workload × metric the median,
// the quartiles, the driver's spread (interquartile range over the
// median) and (max − min)/median, flagging a cell whose spread exceeds
// a third of its bound or whose range exceeds half of it. It is the
// tool the acceptance check uses, and the one a later change should
// use before claiming anything moved.
//
// The order of workloads alternates between rounds, so a drift in the
// machine's speed does not land on the same workload every time.
// Launch i runs seed + i*step: step 0 measures the launch-to-launch
// spread of identical inputs, step 1 the spread the driver sees.
func repeatMode(k int, only string, seed, step int64, seconds float64, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	var names []string
	for _, w := range workloads {
		if only == "" || only == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", only, workloadNames())
		return 2
	}
	defs := endToEnd
	if trace == 1 {
		defs = perLayer()
	}
	values := map[string]map[string][]float64{} // workload → metric → one value per launch
	for _, n := range names {
		values[n] = map[string][]float64{}
	}
	failed := 0
	for i := 0; i < k; i++ {
		order := append([]string(nil), names...)
		if i%2 == 1 {
			for a, b := 0, len(order)-1; a < b; a, b = a+1, b-1 {
				order[a], order[b] = order[b], order[a]
			}
		}
		for _, n := range order {
			cmd := exec.Command(self, "-workload", n,
				"-seed", strconv.FormatInt(seed+int64(i)*step, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(trace))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res struct {
				Correct bool                   `json:"correct"`
				Failed  int                    `json:"failed"`
				Metrics map[string]metricValue `json:"metrics"`
			}
			if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
				fmt.Fprintf(os.Stderr, "launch %d %s: no result (%v, %v)\n", i, n, err, jerr)
				failed++
				continue
			}
			if err != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "launch %d %s: %d failed operations (%v)\n", i, n, res.Failed, err)
				failed++
			}
			for name, mv := range res.Metrics {
				values[n][name] = append(values[n][name], mv.Value)
			}
			fmt.Fprintf(os.Stderr, "launch %d/%d %s done\n", i+1, k, n)
		}
	}
	fmt.Printf("%d launches per workload, seed %d step %d, %g s\n", k, seed, step, seconds)
	fmt.Printf("%-12s %-36s %14s %14s %14s %8s %8s %6s\n",
		"workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound")
	flagged := 0
	for _, n := range names {
		for _, d := range defs {
			xs := values[n][d.Name]
			if len(xs) == 0 {
				continue
			}
			q1, med, q3 := quartiles(xs)
			lo, hi := xs[0], xs[0]
			for _, x := range xs {
				if x < lo {
					lo = x
				}
				if x > hi {
					hi = x
				}
			}
			var iqr, rng float64
			if med != 0 {
				iqr, rng = (q3-q1)/med, (hi-lo)/med
			}
			mark := ""
			if d.Bound > 0 && (iqr > d.Bound/3 || rng > d.Bound/2) {
				mark = "  <-- spread"
				flagged++
			}
			fmt.Printf("%-12s %-36s %14.6g %14.6g %14.6g %7.2f%% %7.2f%% %5.0f%%%s\n",
				n, d.Name, med, q1, q3, 100*iqr, 100*rng, 100*d.Bound, mark)
		}
	}
	fmt.Println(strings.Repeat("-", 40))
	fmt.Printf("%d cells flagged, %d launches failed\n", flagged, failed)
	if failed > 0 {
		return 1
	}
	return 0
}
