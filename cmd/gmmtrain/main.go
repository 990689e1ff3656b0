// Command gmmtrain trains the ICGMM cache-policy GMM on a trace file and
// writes the model (with its input normalizer) as JSON.
//
// Usage:
//
//	gmmtrain -trace dlrm.trace -o dlrm.gmm
//	gmmtrain -trace parsec.csv -format csv -k 64 -iters 30 -o parsec.gmm
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/gmm"
	"repro/internal/trace"
)

func main() {
	var (
		inPath  = flag.String("trace", "", "input trace file")
		format  = flag.String("format", "binary", "trace format: binary|csv")
		out     = flag.String("o", "", "output model file (default stdout)")
		k       = flag.Int("k", 256, "number of Gaussian components")
		iters   = flag.Int("iters", 50, "maximum EM iterations")
		tol     = flag.Float64("tol", 1e-4, "convergence tolerance on mean log-likelihood")
		seed    = flag.Int64("seed", 1, "initialization seed")
		maxSamp = flag.Int("max-samples", 20000, "training subsample cap (0 = all)")
		window  = flag.Int("window", 32, "Algorithm 1 len_window")
		shot    = flag.Int("shot", 10000, "Algorithm 1 len_access_shot")
		diag    = flag.Bool("diag", false, "constrain covariances to be diagonal (cheaper hardware datapath)")
		chooseK = flag.Bool("choose-k", false, "select K from {16,32,64,128,256} by BIC instead of -k")
		workers = flag.Int("workers", 0, "E-step worker pool size (0 = one per core, 1 = sequential; results identical at any value)")
	)
	flag.Parse()

	if err := run(*inPath, *format, *out, *k, *iters, *tol, *seed, *maxSamp, *window, *shot, *diag, *chooseK, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "gmmtrain:", err)
		os.Exit(1)
	}
}

func run(inPath, format, out string, k, iters int, tol float64, seed int64, maxSamp, window, shot int, diag, chooseK bool, workers int) error {
	if inPath == "" {
		return fmt.Errorf("missing -trace")
	}
	f, err := os.Open(inPath)
	if err != nil {
		return err
	}
	defer f.Close()

	var tr trace.Trace
	switch format {
	case "binary":
		tr, err = trace.ReadBinary(f)
	case "csv":
		tr, err = trace.ReadCSV(f)
	default:
		return fmt.Errorf("unknown format %q", format)
	}
	if err != nil {
		return err
	}

	tcfg := trace.DefaultTransformConfig()
	tcfg.LenWindow = window
	tcfg.LenAccessShot = shot
	cfg := gmm.TrainConfig{
		K: k, MaxIters: iters, Tol: tol, Seed: seed, MaxSamples: maxSamp,
		DiagonalCov: diag, Workers: workers,
	}
	var res *gmm.TrainResult
	var norm trace.Normalizer
	if chooseK {
		samples := trace.Preprocess(tr, tcfg)
		norm = trace.FitNormalizer(samples)
		best, sweep, cerr := gmm.ChooseK(norm.ApplyAll(samples),
			[]int{16, 32, 64, 128, 256}, cfg, gmm.ByBIC)
		if cerr != nil {
			return cerr
		}
		for _, e := range sweep {
			fmt.Fprintf(os.Stderr, "K=%-4d BIC=%.1f\n", e.K, e.Score)
		}
		fmt.Fprintf(os.Stderr, "selected K=%d\n", best.K)
		res = best.Result
	} else {
		res, norm, err = gmm.FitTrace(tr, tcfg, cfg)
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr,
		"trained K=%d on %d samples: %d iterations, converged=%v, mean log-likelihood entering the last iteration %.4f\n",
		res.Model.K(), res.SamplesUsed, res.Iters, res.Converged, res.LogLikelihood)

	w := os.Stdout
	if out != "" {
		of, err := os.Create(out)
		if err != nil {
			return err
		}
		defer of.Close()
		w = of
	}
	return gmm.Save(w, res.Model, norm)
}
