package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"
)

// summary is one end-to-end metric over a workload's measured runs.
type summary struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// workloadReport is one workload's share of a set.
type workloadReport struct {
	Name      string             `json:"name"`
	Attempted uint64             `json:"attempted_ops"`
	Failed    uint64             `json:"failed_ops"`
	Steps     int                `json:"steps_per_run"`
	Metrics   map[string]summary `json:"metrics,omitempty"`
	// Wall summarizes the host-time metrics as raw wall time.
	Wall   map[string]summary `json:"wall,omitempty"`
	Layers map[string]float64 `json:"layers,omitempty"`
}

// environment is the machine a set ran on.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// report is one invocation: a set of runs at one seed.
type report struct {
	Date      string            `json:"date"`
	Seed      int64             `json:"seed"`
	Env       environment       `json:"env"`
	Attempted uint64            `json:"attempted_ops"`
	Failed    uint64            `json:"failed_ops"`
	Workloads []*workloadReport `json:"workloads"`
	Runs      []runResult       `json:"runs"`
}

func newReport(ws []benchWorkload, o options, results []runResult) *report {
	rep := &report{
		Date: time.Now().UTC().Format(time.RFC3339),
		Seed: o.seed,
		Env: environment{
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			CPUModel:   cpuModel(),
			GoVersion:  runtime.Version(),
			OS:         runtime.GOOS,
			Arch:       runtime.GOARCH,
		},
		Runs: results,
	}
	for _, w := range ws {
		wr := &workloadReport{Name: w.name, Steps: w.batches(), Metrics: map[string]summary{}, Wall: map[string]summary{}}
		for _, m := range endToEnd {
			var vals, walls []float64
			for _, r := range results {
				if r.Workload == w.name && !r.Traced && r.Err == "" {
					vals = append(vals, r.Metrics[m.name])
					if v, ok := r.Wall[m.name]; ok {
						walls = append(walls, v)
					}
				}
			}
			summarize := func(vals []float64) summary {
				q1, q3 := quartiles(vals)
				return summary{Unit: m.unit, Better: m.better, Bound: m.bound, Median: median(vals), Q1: q1, Q3: q3, N: len(vals), Values: vals}
			}
			if len(vals) > 0 {
				wr.Metrics[m.name] = summarize(vals)
			}
			if len(walls) > 0 {
				wr.Wall[m.name] = summarize(walls)
			}
		}
		for _, r := range results {
			if r.Workload != w.name {
				continue
			}
			wr.Attempted += w.spec.EffectiveOps()
			if r.Err != "" {
				wr.Failed += w.spec.EffectiveOps()
			} else if r.Traced {
				wr.Layers = r.Layers
			}
		}
		rep.Attempted += wr.Attempted
		rep.Failed += wr.Failed
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep
}

// print writes the human-readable tables.
func (rep *report) print(out io.Writer) {
	for _, wr := range rep.Workloads {
		fmt.Fprintf(out, "\n== %s (seed %d): %d of %d ops failed, error_rate %.4g ==\n",
			wr.Name, rep.Seed, wr.Failed, wr.Attempted, float64(wr.Failed)/float64(max(wr.Attempted, 1)))
		if len(wr.Metrics) > 0 {
			tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
			fmt.Fprintln(tw, "metric\tunit\tbetter\tbound\tmedian\tq1\tq3\tn\twall median")
			for _, m := range endToEnd {
				s, ok := wr.Metrics[m.name]
				if !ok {
					continue
				}
				wall := "-"
				if ws, ok := wr.Wall[m.name]; ok {
					wall = fmt.Sprintf("%.6g", ws.Median)
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%g%%\t%.6g\t%.6g\t%.6g\t%d\t%s\n", m.name, m.unit, m.better, 100*m.bound, s.Median, s.Q1, s.Q3, s.N, wall)
			}
			tw.Flush()
			if n := tailCount(wr.Steps, 1); n < 10 {
				fmt.Fprintf(out, "note: step_tail_ms averages only %d of %d steps; it is not a measured tail\n", n, wr.Steps)
			}
		}
		if wr.Layers != nil {
			fmt.Fprintln(out, "-- traced run: per-layer metrics --")
			tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
			fmt.Fprintln(tw, "metric\tunit\tvalue")
			for _, m := range perLayer {
				fmt.Fprintf(tw, "%s\t%s\t%.6g\n", m.name, m.unit, wr.Layers[m.name])
			}
			tw.Flush()
		}
	}
	for _, r := range rep.Runs {
		if r.Err != "" {
			fmt.Fprintf(out, "FAILED %s run (traced=%v): %s\n", r.Workload, r.Traced, r.Err)
		}
	}
}

// valueUnit is one metric in the last output line.
type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// lastLine is the machine-readable result: end-to-end medians, or with
// traced set the traced run's per-layer metrics. With several workloads
// each metric name is prefixed by "<workload>/".
func (rep *report) lastLine(traced bool) map[string]any {
	metrics := map[string]valueUnit{}
	for _, wr := range rep.Workloads {
		prefix := ""
		if len(rep.Workloads) > 1 {
			prefix = wr.Name + "/"
		}
		if traced {
			if wr.Layers == nil {
				continue
			}
			for _, m := range perLayer {
				if v := wr.Layers[m.name]; isFinite(v) {
					metrics[prefix+m.name] = valueUnit{v, m.unit}
				}
			}
			continue
		}
		for _, m := range endToEnd {
			if s, ok := wr.Metrics[m.name]; ok && isFinite(s.Median) {
				metrics[prefix+m.name] = valueUnit{s.Median, m.unit}
			}
		}
	}
	return map[string]any{
		"correct":   rep.Failed == 0,
		"attempted": rep.Attempted,
		"failed":    rep.Failed,
		"metrics":   metrics,
	}
}

// appendTo adds the report to the JSON file's "sets" list, creating the
// file if needed, so repeated invocations build one results document.
func (rep *report) appendTo(path string) error {
	var doc struct {
		Sets []json.RawMessage `json:"sets"`
	}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	set, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	doc.Sets = append(doc.Sets, set)
	out, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
