// Command fffuzz runs differential fuzzing campaigns over generated
// minilang programs, checking the five invariants of the compositional
// analysis (see internal/diffcheck):
//
//	sound        composed SDC bound covers the monolithic co-run truth
//	incremental  re-analysis after an edit equals from-scratch analysis
//	resume       killed+resumed campaign converges to the uninterrupted one
//	engines      production and reference replay engines agree per class
//	harden       protect-everything hardening preserves fault-free semantics
//
// Usage:
//
//	fffuzz -seed 1 -n 200                      # all five, round-robin
//	fffuzz -seed 7 -n 50 -invariant sound      # one invariant only
//	fffuzz -repro corpus/sound-0000...json     # re-run a saved reproducer
//
// Violations are shrunk to minimal reproducers and written to -corpus;
// the exit status is non-zero when any check failed.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"fastflip/internal/diffcheck"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fffuzz: ")
	var (
		seed      = flag.Uint64("seed", 1, "campaign master seed")
		n         = flag.Int("n", 100, "number of checks to run")
		invariant = flag.String("invariant", "", "restrict to one invariant: sound, incremental, resume, engines, harden (default all)")
		corpus    = flag.String("corpus", "diffcheck-corpus", "directory for shrunk reproducers")
		noShrink  = flag.Bool("no-shrink", false, "report violations without minimizing them")
		repro     = flag.String("repro", "", "re-run a saved reproducer JSON file and exit")
		quiet     = flag.Bool("quiet", false, "suppress progress output")
	)
	flag.Parse()

	if *repro != "" {
		rep, err := diffcheck.ReadReproducer(*repro)
		if err != nil {
			log.Fatal(err)
		}
		if v := rep.Recheck(); v != nil {
			fmt.Printf("reproduced: %v\n", v)
			os.Exit(1)
		}
		fmt.Printf("%s: invariant %q holds (fixed?)\n", *repro, rep.Invariant)
		return
	}

	opts := diffcheck.Options{
		Seed:      *seed,
		N:         *n,
		CorpusDir: *corpus,
		NoShrink:  *noShrink,
	}
	if !*quiet {
		opts.Log = log.Printf
	}
	if *invariant != "" {
		inv := diffcheck.Invariant(*invariant)
		valid := false
		for _, known := range diffcheck.Invariants {
			if inv == known {
				valid = true
			}
		}
		if !valid {
			log.Fatalf("unknown invariant %q (have: sound, incremental, resume, engines, harden)", *invariant)
		}
		opts.Invariants = []diffcheck.Invariant{inv}
	}

	rep, err := opts.Run()
	if err != nil {
		log.Fatal(err)
	}

	var parts []string
	for _, inv := range diffcheck.Invariants {
		if c := rep.Checked[inv]; c > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", inv, c))
		}
	}
	sort.Strings(parts)
	fmt.Printf("checked %d programs (%s): %d violation(s)\n",
		*n, strings.Join(parts, " "), len(rep.Violations))
	for _, v := range rep.Violations {
		fmt.Printf("  %v\n", v)
	}
	for _, p := range rep.Reproducers {
		fmt.Printf("  reproducer: %s\n", p)
	}
	if len(rep.Violations) > 0 {
		os.Exit(1)
	}
}
