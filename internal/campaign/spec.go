package campaign

import (
	"fmt"
	"hash/fnv"

	"readduo/internal/dist"
	"readduo/internal/sim"
	"readduo/internal/trace"
)

// Spec declares a campaign: the cross product of benchmarks, schemes, and
// replicate seeds, each run at the given instruction budget.
type Spec struct {
	// Benchmarks are the workload rows of the matrix.
	Benchmarks []trace.Benchmark
	// Schemes are the design-point columns.
	Schemes []sim.Scheme
	// Seeds are the campaign-level replicate seeds; each expands the full
	// benchmark x scheme matrix once. Empty defaults to {1}.
	Seeds []int64
	// Budget is the per-core instruction budget; zero keeps the
	// simulator default.
	Budget uint64
	// Configure, when non-nil, post-processes each job's configuration
	// (trace replay, ablation overrides). It runs on worker goroutines and
	// must be safe for concurrent calls.
	Configure func(Job, *sim.Config)
}

// Job is one independent (seed, benchmark, scheme) simulation.
type Job struct {
	// Index is the job's position in Spec.Jobs() order; aggregation and
	// journal resume are keyed off it, so it is stable for a fixed Spec.
	Index int
	// SeedIndex selects the replicate; Seed is the derived simulation
	// seed actually passed to the engine.
	SeedIndex int
	Seed      int64
	Benchmark trace.Benchmark
	Scheme    sim.Scheme
}

// Key names the job uniquely within its campaign, stably across resumes.
func (j Job) Key() string {
	return fmt.Sprintf("s%d/%s/%s", j.SeedIndex, j.Benchmark.Name, j.Scheme.Name())
}

// JobSeed derives the deterministic per-job simulation seed from a campaign
// replicate seed and the benchmark name. The scheme is deliberately absent:
// all scheme columns of one benchmark row share an access stream, keeping
// the normalized comparisons paired; distinct benchmarks and replicates get
// decorrelated streams.
func JobSeed(campaignSeed int64, benchmark string) int64 {
	h := fnv.New64a()
	h.Write([]byte(benchmark))
	s := int64(dist.Splitmix64(uint64(campaignSeed)^h.Sum64()) &^ (1 << 63))
	if s == 0 {
		s = 1
	}
	return s
}

// seeds returns the replicate seeds with the default applied.
func (s Spec) seeds() []int64 {
	if len(s.Seeds) == 0 {
		return []int64{1}
	}
	return s.Seeds
}

// Validate checks the spec for an expandable, collision-free matrix.
func (s Spec) Validate() error {
	if len(s.Benchmarks) == 0 || len(s.Schemes) == 0 {
		return fmt.Errorf("campaign: empty matrix")
	}
	benchNames := make(map[string]bool, len(s.Benchmarks))
	for _, b := range s.Benchmarks {
		if err := b.Validate(); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
		if benchNames[b.Name] {
			return fmt.Errorf("campaign: duplicate benchmark %q", b.Name)
		}
		benchNames[b.Name] = true
	}
	schemeNames := make(map[string]bool, len(s.Schemes))
	for _, sc := range s.Schemes {
		if err := sc.Validate(); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
		if schemeNames[sc.Name()] {
			return fmt.Errorf("campaign: duplicate scheme %q", sc.Name())
		}
		schemeNames[sc.Name()] = true
	}
	seedSeen := make(map[int64]bool, len(s.seeds()))
	for _, sd := range s.seeds() {
		if seedSeen[sd] {
			return fmt.Errorf("campaign: duplicate seed %d", sd)
		}
		seedSeen[sd] = true
	}
	return nil
}

// Jobs expands the spec into its job list in canonical order: seed-major,
// then benchmark, then scheme. Job indices follow this order.
func (s Spec) Jobs() []Job {
	seeds := s.seeds()
	jobs := make([]Job, 0, len(seeds)*len(s.Benchmarks)*len(s.Schemes))
	for si, seed := range seeds {
		for _, b := range s.Benchmarks {
			jobSeed := JobSeed(seed, b.Name)
			for _, sc := range s.Schemes {
				jobs = append(jobs, Job{
					Index:     len(jobs),
					SeedIndex: si,
					Seed:      jobSeed,
					Benchmark: b,
					Scheme:    sc,
				})
			}
		}
	}
	return jobs
}

// Fingerprint hashes the campaign's identity — budget, seeds, and the
// ordered benchmark and scheme lists — so a journal can refuse to resume a
// different campaign.
func (s Spec) Fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "budget=%d", s.Budget)
	for _, sd := range s.seeds() {
		fmt.Fprintf(h, "|seed=%d", sd)
	}
	for _, b := range s.Benchmarks {
		fmt.Fprintf(h, "|bench=%s", b.Name)
	}
	for _, sc := range s.Schemes {
		fmt.Fprintf(h, "|scheme=%s", sc.Name())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// RestoreSpec rebuilds a runnable Spec from a journal header: benchmarks
// come back through the trace registry and schemes through the sim spec
// parser (every scheme Name is itself a parseable spec string). The
// restored spec is fingerprint-checked against the header, so a journal
// written before a code change can only be resumed if the campaign it
// describes is still expressible bit-for-bit. Configure hooks are not
// journaled and come back nil.
func RestoreSpec(h Header) (Spec, error) {
	s := Spec{
		Seeds:  append([]int64(nil), h.Seeds...),
		Budget: h.Budget,
	}
	for _, name := range h.Benchmarks {
		b, ok := trace.ByName(name)
		if !ok {
			return Spec{}, fmt.Errorf("campaign: restore: unknown benchmark %q", name)
		}
		s.Benchmarks = append(s.Benchmarks, b)
	}
	for _, spec := range h.Schemes {
		sc, err := sim.Parse(spec)
		if err != nil {
			return Spec{}, fmt.Errorf("campaign: restore scheme %q: %w", spec, err)
		}
		s.Schemes = append(s.Schemes, sc)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	if got := s.Fingerprint(); got != h.Fingerprint {
		return Spec{}, fmt.Errorf("campaign: restore: fingerprint %s does not match journal %s",
			got, h.Fingerprint)
	}
	return s, nil
}

// Header builds the journal header describing this spec.
func (s Spec) Header(createdUnix int64) Header {
	benches := make([]string, len(s.Benchmarks))
	for i, b := range s.Benchmarks {
		benches[i] = b.Name
	}
	schemes := make([]string, len(s.Schemes))
	for i, sc := range s.Schemes {
		schemes[i] = sc.Name()
	}
	return Header{
		Version:     journalVersion,
		Fingerprint: s.Fingerprint(),
		CreatedUnix: createdUnix,
		Budget:      s.Budget,
		Seeds:       append([]int64(nil), s.seeds()...),
		Benchmarks:  benches,
		Schemes:     schemes,
		Jobs:        len(s.seeds()) * len(s.Benchmarks) * len(s.Schemes),
	}
}
