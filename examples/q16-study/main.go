// Q16-study: accuracy vs. throughput of the Q16.16 fixed-point scorer.
//
// The quantized datapath (spec "scoring": "q16") emulates the paper's FPGA
// weight buffer: every model constant lives in Q16.16 two's-complement and
// inference runs on the dequantized constants. This study quantifies what
// that costs on the committed q16 scenario (cmd/icgmm-serve/testdata/
// spec-q16.json):
//
//  1. Run the identical scenario under float64 and q16 scoring and compare
//     aggregate and per-tenant hit ratios end to end — quantization error
//     feeds back through admission decisions, cache contents, eviction
//     scores and the adaptive controller, so end-to-end hit ratio is the
//     honest accuracy metric.
//  2. Score a dense grid over the normalized feature square with both
//     trained bundles and report the admission-decision disagreement
//     fraction (each scorer against its own calibrated threshold — GMM
//     densities are only comparable within one datapath).
//
// Run with: go run ./examples/q16-study [-spec file.json]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/gmm"
	"repro/internal/serve"
)

func runOnce(spec serve.Spec, scoring string) *serve.Snapshot {
	spec.Scoring = scoring
	sess, err := serve.Open(spec, nil)
	if err != nil {
		log.Fatalf("%s run: %v", scoring, err)
	}
	snap, err := sess.Run()
	if err != nil {
		log.Fatalf("%s run: %v", scoring, err)
	}
	return snap
}

func main() {
	specPath := flag.String("spec", filepath.Join("cmd", "icgmm-serve", "testdata", "spec-q16.json"),
		"run spec JSON (the scoring field is overridden per arm)")
	flag.Parse()

	data, err := os.ReadFile(*specPath)
	if err != nil {
		log.Fatal(err)
	}
	spec, err := serve.ParseSpec(data)
	if err != nil {
		log.Fatal(err)
	}

	// Arm 1 + 2: the same scenario end to end under each datapath.
	fSnap := runOnce(spec, "float64")
	qSnap := runOnce(spec, "q16")

	fmt.Printf("scenario: %s (%d ops, %d tenants)\n\n", *specPath, fSnap.Ops, len(fSnap.Tenants))
	fmt.Printf("%-12s %12s %12s %12s\n", "hit ratio", "float64", "q16", "delta")
	fmt.Printf("%-12s %12.4f %12.4f %+12.4f\n", "aggregate",
		fSnap.HitRatio(), qSnap.HitRatio(), qSnap.HitRatio()-fSnap.HitRatio())
	for i := range fSnap.Tenants {
		ft, qt := fSnap.Tenants[i], qSnap.Tenants[i]
		fmt.Printf("%-12s %12.4f %12.4f %+12.4f\n", ft.Tenant,
			ft.HitRatio(), qt.HitRatio(), qt.HitRatio()-ft.HitRatio())
	}
	fmt.Printf("\nrefreshes: float64 %d (failed %d), q16 %d (failed %d)\n",
		fSnap.Refreshes, fSnap.RefreshesFailed, qSnap.Refreshes, qSnap.RefreshesFailed)

	// Admission-decision disagreement: train one bundle per datapath (same
	// deterministic warm trace underneath — the q16 arm quantizes the fitted
	// model and recalibrates the threshold on the quantized density scale),
	// then compare per-point admit/bypass decisions on a dense grid over the
	// normalized feature square. The normalizer maps the warm working set to
	// [0,1]^2, so a slightly padded grid covers it plus the tails.
	fSpec, qSpec := spec, spec
	fSpec.Scoring = "float64"
	qSpec.Scoring = "q16"
	fb, err := serve.TrainBundleFromSpec(fSpec)
	if err != nil {
		log.Fatal(err)
	}
	qb, err := serve.TrainBundleFromSpec(qSpec)
	if err != nil {
		log.Fatal(err)
	}
	const n = 512
	var pages, times, fScores, qScores [n]float64
	for i := range times {
		times[i] = -0.05 + 1.10*float64(i)/float64(n-1)
	}
	var scratch gmm.Scratch
	disagree, total := 0, 0
	for pi := 0; pi < n; pi++ {
		// One grid row per batch: every point of the row shares its page.
		for i := range pages {
			pages[i] = -0.05 + 1.10*float64(pi)/float64(n-1)
		}
		fb.Scorer.ScorePageTimeBatchScratch(pages[:], times[:], fScores[:], &scratch)
		qb.Scorer.ScorePageTimeBatchScratch(pages[:], times[:], qScores[:], &scratch)
		for ti := range times {
			if (fScores[ti] >= fb.Threshold) != (qScores[ti] >= qb.Threshold) {
				disagree++
			}
			total++
		}
	}
	fmt.Printf("\nadmission decisions on a %dx%d normalized grid: %d/%d disagree (%.4f%%)\n",
		n, n, disagree, total, 100*float64(disagree)/float64(total))
	fmt.Printf("thresholds: float64 %.6g, q16 %.6g (different density scales by design)\n",
		fb.Threshold, qb.Threshold)
	fmt.Printf("q16 quantization report: %d saturated constants, max abs error %.3g\n",
		qb.Quant.Saturated, qb.Quant.MaxAbsErr)
}
