package readduo_test

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"os"
	"slices"
	"text/tabwriter"
	"time"

	"readduo"
)

// Example_quickstart walks the three layers of the library: plan a scrub
// policy analytically (can MLC PCM match DRAM reliability?), drive a
// BCH-protected Monte-Carlo line through drift, and run a small
// full-system simulation comparing ReadDuo to the M-metric-only baseline.
func Example_quickstart() {
	fmt.Println("== 1. Scrub-policy planning ==")
	rAn, err := readduo.NewReliabilityAnalyzer(readduo.RMetric())
	if err != nil {
		log.Fatal(err)
	}
	mAn, err := readduo.NewReliabilityAnalyzer(readduo.MMetric())
	if err != nil {
		log.Fatal(err)
	}
	for _, pp := range []struct {
		an *readduo.ReliabilityAnalyzer
		p  readduo.ScrubPolicy
	}{
		{rAn, readduo.ScrubPolicy{E: 8, S: 8, W: 1}},   // fails (ii): needs W=0
		{rAn, readduo.ScrubPolicy{E: 8, S: 8, W: 0}},   // the Scrubbing baseline
		{mAn, readduo.ScrubPolicy{E: 8, S: 640, W: 1}}, // ReadDuo's relaxed M-scrub
		{rAn, readduo.ScrubPolicy{E: 8, S: 640, W: 0}}, // R-sensing cannot stretch to 640s
	} {
		rep, err := pp.an.Check(pp.p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-9s %v  -> meets DRAM budget: %v (P_i=%.2e, budget %.2e)\n",
			pp.an.Metric(), pp.p, rep.Meets, rep.FirstInterval, rep.TargetFirst)
	}

	fmt.Println("\n== 2. Monte-Carlo line through 640 s of drift ==")
	line, err := readduo.NewMLCLine()
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	payload := make([]byte, line.DataBytes())
	rng.Read(payload)
	if err := line.Write(payload, 0, rng); err != nil {
		log.Fatal(err)
	}
	for _, metric := range []readduo.LineReadMetric{readduo.LineReadR, readduo.LineReadM} {
		res, err := line.Read(metric, 640)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  metric %v: %d drifted cells, ECC status %v, payload intact: %v\n",
			metric, res.CellErrors, res.Status, bytes.Equal(res.Data, payload))
	}

	fmt.Println("\n== 3. Full-system simulation on mcf ==")
	cfg, err := readduo.SimConfigFor("mcf")
	if err != nil {
		log.Fatal(err)
	}
	cfg.CPU.InstrBudget = 400_000
	var baseline float64
	for _, scheme := range []readduo.Scheme{
		readduo.SchemeIdeal(), readduo.SchemeMMetric(), readduo.SchemeLWT(4, true),
	} {
		res, err := readduo.Simulate(cfg, scheme)
		if err != nil {
			log.Fatal(err)
		}
		if baseline == 0 {
			baseline = float64(res.ExecTime)
		}
		fmt.Printf("  %-9s exec %v (%.2fx Ideal), reads R/M/RM = %d/%d/%d\n",
			res.Scheme, res.ExecTime, float64(res.ExecTime)/baseline,
			res.RReads, res.MReads, res.RMReads)
	}
	// Output:
	// == 1. Scrub-policy planning ==
	//   R-metric  (BCH=8, S=8s, W=1)  -> meets DRAM budget: false (P_i=1.65e-16, budget 2.84e-14)
	//   R-metric  (BCH=8, S=8s, W=0)  -> meets DRAM budget: true (P_i=1.65e-16, budget 2.84e-14)
	//   M-metric  (BCH=8, S=640s, W=1)  -> meets DRAM budget: true (P_i=6.21e-37, budget 2.28e-12)
	//   R-metric  (BCH=8, S=640s, W=0)  -> meets DRAM budget: false (P_i=2.07e-04, budget 2.28e-12)
	//
	// == 2. Monte-Carlo line through 640 s of drift ==
	//   metric R-sensing: 0 drifted cells, ECC status clean, payload intact: true
	//   metric M-sensing: 0 drifted cells, ECC status clean, payload intact: true
	//
	// == 3. Full-system simulation on mcf ==
	//   Ideal     exec 996.292µs (1.00x Ideal), reads R/M/RM = 17940/0/0
	//   M-metric  exec 1.686994ms (1.69x Ideal), reads R/M/RM = 0/17941/0
	//   LWT-4     exec 1.170262ms (1.17x Ideal), reads R/M/RM = 15383/0/2544
}

// Example_inmemdb reproduces the worst case §III-C of the paper calls out
// for last-write tracking: an in-memory database is built once and then
// queried long after one scrub interval (640 s), so every row starts
// untracked. The first query round is dominated by slow R-M-reads; the
// adaptive conversion controller then rewrites the hot rows and later
// rounds run almost entirely at R-read speed.
func Example_inmemdb() {
	const (
		tableRows       = 256
		scrubInterval   = 640.0 // seconds
		k               = 4
		queryRounds     = 4
		queriesPerRound = 512
	)
	rng := rand.New(rand.NewSource(7))
	timing := readduo.DefaultSenseTiming()

	// Build phase at t=0: load every row.
	rows := make([]*readduo.Line, tableRows)
	trackers := make([]*readduo.Tracker, tableRows)
	for i := range rows {
		line, err := readduo.NewMLCLine()
		if err != nil {
			log.Fatal(err)
		}
		payload := make([]byte, line.DataBytes())
		rng.Read(payload)
		if err := line.Write(payload, 0, rng); err != nil {
			log.Fatal(err)
		}
		rows[i] = line
		tr, err := readduo.NewTracker(k)
		if err != nil {
			log.Fatal(err)
		}
		if err := tr.RecordWrite(0); err != nil {
			log.Fatal(err)
		}
		trackers[i] = tr
	}
	conv, err := readduo.NewConverter()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built %d rows at t=0; querying from t=%.0fs (two intervals later)\n",
		tableRows, 2*scrubInterval)

	// The per-line scrub runs every 640 s with W=1: no drift errors under
	// M-sensing, so no rewrite — the trackers just age out. After two
	// scrubs every row is untracked.
	for scrub := 0; scrub < 2; scrub++ {
		for _, tr := range trackers {
			tr.RecordScrub(false)
		}
	}

	// Query phase: skewed toward the hot quarter of the table.
	now := 2 * scrubInterval
	for round := 1; round <= queryRounds; round++ {
		var rReads, rmReads, conversions int
		var latency time.Duration
		for q := 0; q < queriesPerRound; q++ {
			row := rng.Intn(tableRows / 4)
			if rng.Float64() < 0.2 {
				row = rng.Intn(tableRows) // occasional cold row
			}
			label := int(now/(scrubInterval/k)) % k
			okR, err := trackers[row].AllowRSense(label)
			if err != nil {
				log.Fatal(err)
			}
			if okR {
				rReads++
				latency += timing.Latency(readduo.ReadModeR)
				if _, err := rows[row].Read(readduo.LineReadR, now); err != nil {
					log.Fatal(err)
				}
				continue
			}
			// Untracked: R-M-read, possibly converted to a redundant
			// write that re-enables fast reads.
			rmReads++
			latency += timing.Latency(readduo.ReadModeRM)
			res, err := rows[row].Read(readduo.LineReadM, now)
			if err != nil {
				log.Fatal(err)
			}
			if conv.ShouldConvert() {
				conversions++
				if err := rows[row].Write(res.Data, now, rng); err != nil {
					log.Fatal(err)
				}
				if err := trackers[row].RecordWrite(label); err != nil {
					log.Fatal(err)
				}
			}
		}
		total := rReads + rmReads
		// After the build writes aged out, the only tracked rows are the
		// converted ones, so every fast R-read this round is a conversion
		// re-hit — exactly the controller's payoff signal.
		if err := conv.EpochUpdate(float64(rmReads)/float64(total), uint64(conversions), uint64(rReads)); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("round %d: R-reads %3d  R-M-reads %3d  conversions %3d  T=%3d%%  avg latency %v\n",
			round, rReads, rmReads, conversions, conv.T(), latency/time.Duration(total))
		now += 5 // a few seconds of querying per round
	}
	// Output:
	// built 256 rows at t=0; querying from t=1280s (two intervals later)
	// round 1: R-reads 336  R-M-reads 176  conversions 100  T= 60%  avg latency 304ns
	// round 2: R-reads 445  R-M-reads  67  conversions  43  T= 70%  avg latency 208ns
	// round 3: R-reads 464  R-M-reads  48  conversions  27  T= 80%  avg latency 192ns
	// round 4: R-reads 485  R-M-reads  27  conversions  18  T= 90%  avg latency 173ns
}

// Example_scrubplanner uses the reliability analyzer as a design tool: for
// the DRAM-class soft-error budget of 25 FIT/Mbit it finds, per readout
// metric and scrub interval, the weakest BCH code that meets the budget
// with full rewrites (W=0), and whether that code also survives W=1 — the
// workflow behind the paper's Tables III-V. ReadDuo pairs the fast
// metric's reads with the slow metric's relaxed scrubbing: BCH-8 at 640 s
// under M-sensing costs ~26k scrub reads/GB/s versus ~2M at the 8 s
// interval R-sensing needs.
func Example_scrubplanner() {
	fmt.Printf("searching policies for 25 FIT/Mbit (budget %.3g per line-second)\n\n", readduo.DRAMTargetLER(1))
	for _, mc := range []struct {
		name string
		cfg  readduo.DriftConfig
	}{
		{"R-metric (fast current sensing)", readduo.RMetric()},
		{"M-metric (drift-resilient voltage sensing)", readduo.MMetric()},
	} {
		an, err := readduo.NewReliabilityAnalyzer(mc.cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(mc.name)
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  interval\tmin BCH (W=0)\tW=1 safe with that BCH\tscrub reads/GB/s")
		for _, s := range []float64{8, 64, 640, 16384} {
			e, ok := an.MinECCForTarget(s, 24)
			if !ok {
				fmt.Fprintf(tw, "  %gs\tnone <= 24\t-\t-\n", s)
				continue
			}
			rep, err := an.Check(readduo.ScrubPolicy{E: e, S: s, W: 1})
			if err != nil {
				log.Fatal(err)
			}
			// A 1 GB region is 2^24 64-byte lines.
			fmt.Fprintf(tw, "  %gs\tBCH-%d\t%v\t%.0f\n", s, e, rep.Meets, float64(1<<24)/s)
		}
		tw.Flush()
		fmt.Println()
	}
	// Output:
	// searching policies for 25 FIT/Mbit (budget 3.56e-15 per line-second)
	//
	// R-metric (fast current sensing)
	//   interval  min BCH (W=0)  W=1 safe with that BCH  scrub reads/GB/s
	//   8s        BCH-7          false                   2097152
	//   64s       BCH-12         true                    262144
	//   640s      BCH-18         true                    26214
	//   16384s    none <= 24     -                       -
	//
	// M-metric (drift-resilient voltage sensing)
	//   interval  min BCH (W=0)  W=1 safe with that BCH  scrub reads/GB/s
	//   8s        BCH-0          false                   2097152
	//   64s       BCH-1          false                   262144
	//   640s      BCH-3          false                   26214
	//   16384s    BCH-4          true                    1024
}

// Example_driftExplorer shows the physics behind the paper's Figure 6: why
// MLC PCM writes normally re-program every cell. A cohort of level-'10'
// cells (the most error-prone middle level) drifts for one 640 s scrub
// interval. Selectively rewriting only the cells that drifted across the
// state boundary leaves a crowd in the guard band (the last quarter before
// the boundary), primed to fail during the next interval; a full rewrite
// restores the programmed distribution. The crowding is why ReadDuo-Select
// bounds differential writes to s sub-intervals after a full write instead
// of banning them.
func Example_driftExplorer() {
	const (
		cohort = 200000
		level  = 2
		age    = 640.0
	)
	rng := rand.New(rand.NewSource(1))

	selective, err := readduo.NewMLCPopulation(level, cohort, rng)
	if err != nil {
		log.Fatal(err)
	}
	drifted := selective.DriftedCells(age)
	fmt.Printf("drifted across the boundary: %d of %d cells (%.3f%%)\n",
		len(drifted), cohort, 100*float64(len(drifted))/cohort)
	selective.RewriteCells(drifted, age, rng)
	fmt.Printf("guard-band crowding after selective rewrite (Figure 6b): %.2f%%\n",
		100*selective.GuardBandMass(age, 0.25))

	full, err := readduo.NewMLCPopulation(level, cohort, rng)
	if err != nil {
		log.Fatal(err)
	}
	full.RewriteAll(age, rng)
	fmt.Printf("guard-band crowding after full rewrite (Figure 6a): %.2f%%\n",
		100*full.GuardBandMass(age, 0.25))
	// Output:
	// drifted across the boundary: 6059 of 200000 cells (3.030%)
	// guard-band crowding after selective rewrite (Figure 6b): 9.35%
	// guard-band crowding after full rewrite (Figure 6a): 0.95%
}

// Example_endurance exercises the hard-error side of the MLC PCM story,
// the directions the paper marks as orthogonal in §III-E and §VI: cells
// wear out permanently under write pressure, an ECP table repairs stuck
// cells detected by program-and-verify so the BCH-8 budget stays dedicated
// to drift errors, and Start-Gap wear leveling rotates a hot line across
// the array so no single physical slot absorbs the ~90% of writes it
// would take without leveling.
func Example_endurance() {
	rng := rand.New(rand.NewSource(7))

	fmt.Println("== ECP: riding through stuck cells ==")
	line, err := readduo.NewMLCLine()
	if err != nil {
		log.Fatal(err)
	}
	// Median endurance of 40 writes (real cells: ~1e8) so failures arrive
	// within the example.
	line.ArmWearout(40, 0.25, rng)
	pl, err := readduo.NewECPLine(line, 12)
	if err != nil {
		log.Fatal(err)
	}
	data := make([]byte, pl.DataBytes())
	lastUsed := 0
	for w := 1; ; w++ {
		rng.Read(data)
		if err := pl.Write(data, float64(w), rng); err != nil {
			if errors.Is(err, readduo.ErrECPExhausted) {
				fmt.Printf("  write %3d: ECP-12 exhausted (%d cells stuck) -> decommission the line\n",
					w, len(line.StuckCells()))
				break
			}
			log.Fatal(err)
		}
		res, err := pl.Read(readduo.LineReadR, float64(w))
		if err != nil {
			log.Fatal(err)
		}
		if res.Status == readduo.DecodeUncorrectable {
			log.Fatal("payload lost while ECP had capacity")
		}
		if used := pl.Table().Used(); used > 0 && (w%10 == 0 || used != lastUsed) {
			fmt.Printf("  write %3d: %2d stuck cells repaired by ECP, payload intact\n", w, used)
			lastUsed = used
		}
	}
	fmt.Printf("  ECP-12 storage cost: %d SLC bits per line\n", pl.Table().StorageBits())

	fmt.Println("\n== Start-Gap: spreading a hot line's wear ==")
	const lines = 16
	sg, err := readduo.NewStartGap(lines, 8)
	if err != nil {
		log.Fatal(err)
	}
	wear := make([]int, sg.PhysicalSlots())
	const writes = 16 * 17 * 8 * 4 // four full rotations
	for i := 0; i < writes; i++ {
		hot := uint64(0)
		if rng.Intn(10) == 0 {
			hot = uint64(rng.Intn(lines)) // 10% background traffic
		}
		pa, err := sg.Map(hot)
		if err != nil {
			log.Fatal(err)
		}
		wear[pa]++
		sg.OnWrite() // a controller would copy the returned move's From -> To
	}
	lo, hi := slices.Min(wear), slices.Max(wear)
	fmt.Printf("  %d writes, 90%% to one logical line, across %d physical slots\n",
		writes, sg.PhysicalSlots())
	fmt.Printf("  per-slot wear: min %d, max %d (max/mean %.2fx); %d gap copies (1/8 overhead)\n",
		lo, hi, float64(hi)*float64(sg.PhysicalSlots())/float64(writes), sg.GapMoves())
	// Output:
	// == ECP: riding through stuck cells ==
	//   write  20:  1 stuck cells repaired by ECP, payload intact
	//   write  21:  2 stuck cells repaired by ECP, payload intact
	//   write  23:  3 stuck cells repaired by ECP, payload intact
	//   write  24:  6 stuck cells repaired by ECP, payload intact
	//   write  25:  9 stuck cells repaired by ECP, payload intact
	//   write  26: 10 stuck cells repaired by ECP, payload intact
	//   write  27: ECP-12 exhausted (26 cells stuck) -> decommission the line
	//   ECP-12 storage cost: 133 SLC bits per line
	//
	// == Start-Gap: spreading a hot line's wear ==
	//   8704 writes, 90% to one logical line, across 17 physical slots
	//   per-slot wear: min 501, max 526 (max/mean 1.03x); 1088 gap copies (1/8 overhead)
}
