// Command satpg runs the full test-generation flow on one circuit:
// CSSG abstraction, random TPG, three-phase ATPG, fault simulation,
// and optional Monte-Carlo validation on the timed chip model.
//
// Usage:
//
//	satpg -bench si/chu150 -model input -seed 1
//	satpg -bench si/chu150 -faults both -fsim
//	satpg -bench si/chu150 -compact all
//	satpg -circuit my.ckt -model output -tests tests.txt -validate 20
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"

	satpg "repro"
)

func main() {
	var (
		circuitFile = flag.String("circuit", "", "path to a .ckt circuit file")
		benchRef    = flag.String("bench", "", "bundled benchmark (si/<name>, hf/<name>, fig1a, fig1b)")
		model       = flag.String("model", "input", "stuck-at fault model: input or output")
		faultsSel   = flag.String("faults", "sa", "fault universes to target: sa (the -model universe), transition (gross gate-delay), or both")
		k           = flag.Int("k", 0, "test-cycle length in transitions (0: 4×signals)")
		seed        = flag.Int64("seed", 1, "random TPG seed")
		seqs        = flag.Int("random-seqs", 0, "random walks (0: default 256)")
		seqLen      = flag.Int("random-len", 0, "vectors per walk (0: default 24)")
		skipRandom  = flag.Bool("skip-random", false, "disable the random TPG phase")
		fsimFlag    = flag.Bool("fsim", false, "re-measure coverage of the generated tests with the bit-parallel fault simulator")
		compactMode = flag.String("compact", "none", "test-program compaction passes: none, reverse, dominance, greedy or all (coverage preserved fault for fault)")
		direct      = flag.Bool("direct", false, "use the CSSG-free direct flow (automatic for circuits past the 64-signal explicit-state ceiling)")
		testsOut    = flag.String("tests", "", "write tester programs to this file")
		validate    = flag.Int("validate", 0, "Monte-Carlo trials on the timed chip model (0: skip)")
		perFault    = flag.Bool("per-fault", false, "print the verdict for every fault")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (inspect with go tool pprof)")
		memProfile  = flag.String("memprofile", "", "write an end-of-run heap profile to this file (inspect with go tool pprof)")
		stats       = flag.Bool("stats", false, "print the fault simulator's work counters (gate-evals/pattern, allocs/pattern, trace-cache hit rate)")
	)
	flag.Parse()

	if err := validateProfilePaths(*cpuProfile, *memProfile); err != nil {
		fatal(err)
	}
	if *cpuProfile != "" {
		f, err := createProfile("cpuprofile", *cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := createProfile("memprofile", *memProfile)
			if err != nil {
				fatal(err)
			}
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
			f.Close()
		}()
	}

	c, err := loadCircuit(*circuitFile, *benchRef)
	if err != nil {
		fatal(err)
	}
	fm, err := parseModel(*model)
	if err != nil {
		fatal(err)
	}
	sel, err := parseFaultSelection(*faultsSel)
	if err != nil {
		fatal(err)
	}
	cmode, err := parseCompactMode(*compactMode)
	if err != nil {
		fatal(err)
	}
	opts := satpg.Options{
		K: *k, Seed: *seed,
		RandomSequences: *seqs, RandomLength: *seqLen, SkipRandom: *skipRandom,
		Faults: sel, Compact: cmode,
	}
	if *direct {
		opts.Flow = satpg.FlowDirect
	}

	// SIGINT cancels the generation cooperatively: the flow stops at
	// the next batch or decision boundary and hands back the partial
	// result, which is summarised before exiting.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSignals()

	useDirect := *direct || c.NumSignals() > satpg.MaxExplicitSignals
	if useDirect {
		fmt.Printf("direct flow: %d signals, CSSG-free random walks on the scalar ternary machine\n", c.NumSignals())
	}
	res, err := satpg.Run(ctx, c, fm, opts)
	if err != nil {
		if res == nil || !errors.Is(err, context.Canceled) {
			fatal(err)
		}
		fmt.Println("interrupted: partial results up to the last completed batch/decision boundary")
		fmt.Println(res.Summary())
		os.Exit(130)
	}
	g := res.Graph
	var progs []satpg.Program
	if g != nil {
		fmt.Println(g.Summary())
		progs = satpg.Programs(g, res)
	} else {
		progs = satpg.ProgramsForCircuit(c, res)
	}
	fmt.Println(res.Summary())
	if *stats {
		fmt.Println("generation fsim:", res.FaultSim.Line())
	}

	if *fsimFlag {
		rep, err := satpg.FaultSimBatch(c, fm, res.Tests, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(rep.Summary())
		if *stats {
			fmt.Println("coverage fsim:", rep.Stats.Line())
		}
	}

	if opts.Compact != satpg.CompactNone {
		before, err := satpg.MeasureProgramCoverage(c, progs, fm, opts)
		if err != nil {
			fatal(err)
		}
		cr, err := satpg.CompactProgram(c, progs, fm, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Println(cr.Summary())
		// Provenance: how many generation-time credited detections rode
		// the dropped tests (all re-covered by kept tests, per the
		// matrix), and how dense the exact matrix actually is — the gap
		// between the two is the redundancy compaction harvests.
		keptSet := make(map[int]bool, len(cr.Kept))
		for _, ti := range cr.Kept {
			keptSet[ti] = true
		}
		droppedCredit := 0
		for ti, grp := range res.DetectionsByTest() {
			if !keptSet[ti] {
				droppedCredit += len(grp)
			}
		}
		cells := 0
		for _, row := range cr.Matrix.Rows {
			cells += row.Count()
		}
		fmt.Printf("dropped %d tests carrying %d credited detections; matrix holds %d detections across %d tests\n",
			cr.Before-cr.After, droppedCredit, cells, cr.Before)
		after, err := satpg.MeasureProgramCoverage(c, cr.Programs, fm, opts)
		if err != nil {
			fatal(err)
		}
		if !after.VerdictsEqual(before) {
			fatal(fmt.Errorf("compaction changed the measured coverage: %d/%d before, %d/%d after",
				before.Detected, before.Total, after.Detected, after.Total))
		}
		fmt.Printf("coverage preserved fault for fault: %d/%d (%.2f%%) before and after\n",
			after.Detected, after.Total, 100*after.Coverage())
		progs = cr.Programs
	}

	if *perFault {
		for _, fr := range res.PerFault {
			status := fr.Phase.String()
			switch {
			case fr.Unobservable:
				status = "unobservable"
			case fr.Untestable:
				status = "untestable"
			case fr.Aborted:
				status = "aborted"
			}
			fmt.Printf("  %-24s %s\n", fr.Fault.Describe(c), status)
		}
	}
	if *testsOut != "" {
		f, err := os.Create(*testsOut)
		if err != nil {
			fatal(err)
		}
		for _, p := range progs {
			fmt.Fprintln(f, satpg.FormatProgram(c, p))
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d tester programs to %s\n", len(progs), *testsOut)
	}
	if *validate > 0 {
		if useDirect {
			// The timed tester model is explicit-state (one word); the
			// direct flow validates against the scalar ternary oracle
			// instead, which is exact at any size.
			if err := satpg.ValidateDirect(c, res); err != nil {
				fatal(err)
			}
			fmt.Println("validated against the scalar ternary oracle: every kept test and every credited detection replayed")
		} else {
			if err := satpg.ValidateOnTester(g, res, *validate, *seed); err != nil {
				fatal(err)
			}
			fmt.Printf("validated on the timed chip model: %d delay assignments per program\n", *validate)
		}
	}
}

func loadCircuit(file, bench string) (*satpg.Circuit, error) {
	switch {
	case file != "" && bench != "":
		return nil, fmt.Errorf("use either -circuit or -bench, not both")
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return satpg.ParseCircuit(f, file)
	case bench != "":
		return satpg.LoadBenchmark(bench)
	}
	return nil, fmt.Errorf("one of -circuit or -bench is required")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "satpg:", err)
	os.Exit(1)
}
