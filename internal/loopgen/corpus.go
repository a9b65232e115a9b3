package loopgen

import (
	"fmt"
	"math/rand"
	"strings"

	"metaopt/internal/ir"
	"metaopt/internal/lang"
)

// Suite names a benchmark collection.
type Suite string

// The six suites of the paper's corpus (Section 4.6).
const (
	SuiteSpec2000   Suite = "SPEC2000"
	SuiteSpec95     Suite = "SPEC95"
	SuiteSpec92     Suite = "SPEC92"
	SuiteMediabench Suite = "Mediabench"
	SuitePerfect    Suite = "Perfect"
	SuiteKernels    Suite = "Kernels"
)

// Benchmark is one program: a bag of innermost loops plus the whole-program
// composition parameters used by the Figure 4/5 experiments.
type Benchmark struct {
	Name  string
	Suite Suite
	FP    bool // floating-point benchmark (SPECfp side of the figures)

	Loops   []*ir.Loop
	Sources []string // LoopLang source per loop

	// SerialFrac is the fraction of program runtime outside instrumented
	// loops (at the baseline compilation); integer codes spend far more
	// time in unloopy code than SPECfp codes do.
	SerialFrac float64

	// NoiseScale multiplies measurement noise for this benchmark's loops.
	// The paper observed three SPEC programs (mesa, mcf, crafty) whose
	// training sets were noisy enough that ORC beat the "oracle".
	NoiseScale float64
}

// Corpus is the full 72-benchmark training corpus.
type Corpus struct {
	Benchmarks []*Benchmark
}

// Options controls corpus generation.
type Options struct {
	Seed int64

	// LoopsScale scales the number of loops per benchmark (1.0 gives the
	// full ~3500-loop corpus; tests use smaller values).
	LoopsScale float64

	// Replicate deterministically replicates the whole corpus: replica
	// r ≥ 2 is regenerated from a seed perturbed by the replica index and
	// its benchmarks renamed "name@rN", so every replica contributes
	// distinct loops and an independent measurement-noise stream (noise is
	// seeded per benchmark name). 0 or 1 means a single copy; 10 or 100
	// builds the reproducible stress corpora for large-scale training.
	Replicate int
}

// profile drives generation for one benchmark.
type profile struct {
	fp          bool
	lang        string
	famW        [numFamilies]int
	largeTrips  bool
	loops       int
	serialFrac  float64
	noaliasProb float64
	noiseScale  float64
}

func fpProfile(lang string, loops int) profile {
	p := profile{fp: true, lang: lang, loops: loops, largeTrips: true,
		serialFrac: 0.5, noaliasProb: 0.7, noiseScale: 1}
	p.famW = [numFamilies]int{
		famStream: 17, famReduce: 13, famStencil: 12, famRecur: 13,
		famStrided: 10, famGather: 5, famBranchy: 7, famSearch: 3,
		famCalls: 3, famInt: 2, famDiv: 7, famWide: 8,
	}
	return p
}

func intProfile(loops int) profile {
	p := profile{fp: false, lang: "c", loops: loops, largeTrips: false,
		serialFrac: 0.7, noaliasProb: 0.25, noiseScale: 1}
	p.famW = [numFamilies]int{
		famStream: 10, famReduce: 6, famStencil: 2, famRecur: 5,
		famStrided: 3, famGather: 11, famBranchy: 21, famSearch: 14,
		famCalls: 8, famInt: 17, famDiv: 1, famWide: 2,
	}
	return p
}

func mediaProfile(loops int) profile {
	p := profile{fp: false, lang: "c", loops: loops, largeTrips: false,
		serialFrac: 0.6, noaliasProb: 0.4, noiseScale: 1}
	p.famW = [numFamilies]int{
		famStream: 16, famReduce: 10, famStencil: 10, famRecur: 7,
		famStrided: 6, famGather: 8, famBranchy: 14, famSearch: 6,
		famCalls: 4, famInt: 13, famDiv: 3, famWide: 3,
	}
	return p
}

// spec2000 lists the 24 SPEC CPU2000 programs of Figures 4/5 (252.eon and
// 191.fma3d are excluded, as in the paper).
var spec2000 = []struct {
	name string
	fp   bool
	lang string
}{
	{"164.gzip", false, "c"},
	{"168.wupwise", true, "fortran"},
	{"171.swim", true, "fortran"},
	{"172.mgrid", true, "fortran"},
	{"173.applu", true, "fortran"},
	{"175.vpr", false, "c"},
	{"176.gcc", false, "c"},
	{"177.mesa", true, "c"},
	{"178.galgel", true, "f90"},
	{"179.art", true, "c"},
	{"181.mcf", false, "c"},
	{"183.equake", true, "c"},
	{"186.crafty", false, "c"},
	{"187.facerec", true, "f90"},
	{"188.ammp", true, "c"},
	{"189.lucas", true, "f90"},
	{"197.parser", false, "c"},
	{"200.sixtrack", true, "fortran"},
	{"253.perlbmk", false, "c"},
	{"254.gap", false, "c"},
	{"255.vortex", false, "c"},
	{"256.bzip2", false, "c"},
	{"300.twolf", false, "c"},
	{"301.apsi", true, "fortran"},
}

// noisyBenchmarks are the programs the paper flags as having noisy
// training sets (Section 6.1).
var noisyBenchmarks = map[string]float64{
	"177.mesa":   4,
	"181.mcf":    4,
	"186.crafty": 4,
}

var spec95Names = []string{"tomcatv", "su2cor", "hydro2d", "turb3d", "fpppp", "wave5",
	"m88ksim", "compress", "li", "ijpeg", "go", "perl"}
var spec95FP = map[string]bool{"tomcatv": true, "su2cor": true, "hydro2d": true, "turb3d": true, "fpppp": true, "wave5": true}

var spec92Names = []string{"alvinn", "ear", "ora", "swm256", "nasa7", "doduc", "espresso", "eqntott"}
var spec92FP = map[string]bool{"alvinn": true, "ear": true, "ora": true, "swm256": true, "nasa7": true, "doduc": true}

var mediabenchNames = []string{"adpcm", "epic", "g721", "ghostscript", "gsm", "jpeg", "mpeg2", "pegwit", "rasta", "pgp"}

var perfectNames = []string{"adm", "arc2d", "bdna", "dyfesm", "flo52", "mdg", "ocean", "qcd"}

var kernelNames = []string{"livermore", "linpack", "fft", "matmul", "stencil3", "sor", "idct", "fir", "viterbi", "cholesky"}

// Generate builds the corpus deterministically from the seed. With
// Options.Replicate > 1 the full benchmark list is generated once per
// replica, each from its own perturbed seed.
func Generate(opt Options) (*Corpus, error) {
	c := &Corpus{}
	reps := opt.Replicate
	if reps < 1 {
		reps = 1
	}
	for r := 0; r < reps; r++ {
		seed := opt.Seed
		suffix := ""
		if r > 0 {
			// Odd multiplier (the signed bits of the 64-bit golden ratio)
			// spreads replica seeds across the space; replica numbering
			// in names is 1-based to match the CLI flag.
			seed = opt.Seed + int64(r)*-0x61c8864680b583eb
			suffix = fmt.Sprintf("@r%d", r+1)
		}
		if err := generateReplica(c, seed, opt.LoopsScale, suffix); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// generateReplica appends one full benchmark list to c, every benchmark name
// carrying the replica suffix.
func generateReplica(c *Corpus, seed int64, loopsScale float64, suffix string) error {
	scale := loopsScale
	if scale <= 0 {
		scale = 1
	}
	rng := rand.New(rand.NewSource(seed ^ 0x6d657461))

	scaled := func(n int) int {
		v := int(float64(n) * scale)
		if v < 2 {
			v = 2
		}
		return v
	}

	add := func(name string, suite Suite, p profile) error {
		b, err := genBenchmark(name+suffix, suite, p, rng)
		if err != nil {
			return err
		}
		c.Benchmarks = append(c.Benchmarks, b)
		return nil
	}

	for _, s := range spec2000 {
		var p profile
		if s.fp {
			p = fpProfile(s.lang, scaled(55))
		} else {
			p = intProfile(scaled(45))
		}
		if s.name == "177.mesa" || s.name == "179.art" || s.name == "183.equake" || s.name == "188.ammp" {
			p.lang = "c" // SPECfp C programs
		}
		if ns, ok := noisyBenchmarks[s.name]; ok {
			p.noiseScale = ns
		}
		if err := add(s.name, SuiteSpec2000, p); err != nil {
			return err
		}
	}
	for _, n := range spec95Names {
		var p profile
		if spec95FP[n] {
			p = fpProfile("fortran", scaled(48))
		} else {
			p = intProfile(scaled(40))
		}
		if err := add(n, SuiteSpec95, p); err != nil {
			return err
		}
	}
	for _, n := range spec92Names {
		var p profile
		if spec92FP[n] {
			p = fpProfile("fortran", scaled(42))
		} else {
			p = intProfile(scaled(36))
		}
		if err := add(n, SuiteSpec92, p); err != nil {
			return err
		}
	}
	for _, n := range mediabenchNames {
		if err := add(n, SuiteMediabench, mediaProfile(scaled(42))); err != nil {
			return err
		}
	}
	for _, n := range perfectNames {
		if err := add(n, SuitePerfect, fpProfile("fortran", scaled(46))); err != nil {
			return err
		}
	}
	for _, n := range kernelNames {
		p := fpProfile("c", scaled(36))
		p.noaliasProb = 0.9
		if err := add(n, SuiteKernels, p); err != nil {
			return err
		}
	}
	return nil
}

func genBenchmark(name string, suite Suite, p profile, rng *rand.Rand) (*Benchmark, error) {
	b := &Benchmark{
		Name:       name,
		Suite:      suite,
		FP:         p.fp,
		SerialFrac: p.serialFrac + 0.1*rng.Float64() - 0.05,
		NoiseScale: p.noiseScale,
	}
	total := 0
	for _, w := range p.famW {
		total += w
	}
	pick := func() family {
		t := rng.Intn(total)
		for f, w := range p.famW {
			if t < w {
				return family(f)
			}
			t -= w
		}
		return famStream
	}
	for i := 0; i < p.loops; i++ {
		fam := pick()
		params := kernelParams{
			name:    fmt.Sprintf("L%03d", i),
			lang:    p.lang,
			noalias: rng.Float64() < p.noaliasProb,
			nest:    1 + weightedNest(rng),
			elem:    "double",
		}
		if !p.fp && rng.Float64() < 0.5 {
			params.elem = "float"
		}
		params.trip, params.runtime = pickTrip(p.largeTrips, fam, rng)
		iters := params.trip
		if iters == 0 {
			iters = params.runtime
		}
		// Total iterations across the run: enough to clear the 50k-cycle
		// instrumentation floor for most loops, with a spread so some fall
		// below it (and get filtered, as in the paper). The spread is kept
		// moderate so no single loop dominates its benchmark's runtime.
		target := int64(40_000) << uint(rng.Intn(4)) // 40k .. 320k iterations
		// Some nested loops are written with explicit outer loops (the
		// lowering multiplies entries by the outer trip); the rest carry
		// their nest depth as an attribute.
		outer := 0
		if params.nest > 1 && fam != famSearch && rng.Float64() < 0.5 {
			outer = []int{4, 8, 16, 32}[rng.Intn(4)]
		}
		params.entries = target / int64(iters) / int64(maxInt(outer, 1))
		if params.entries < 1 {
			params.entries = 1
		}
		src := genKernel(fam, rng, params)
		if outer > 0 {
			src = wrapOuterLoop(src, outer)
		}
		loop, err := compileKernel(src)
		if err != nil {
			return nil, fmt.Errorf("loopgen: %s/%s (%v): %w\n%s", name, params.name, fam, err, src)
		}
		loop.Benchmark = name
		b.Loops = append(b.Loops, loop)
		b.Sources = append(b.Sources, src)
	}
	return b, nil
}

// wrapOuterLoop rewrites a kernel's single loop into a perfect two-level
// nest with the given outer trip count. Every family generator closes its
// kernel with the literal "\t}\n}\n", so the rewrite is purely textual.
func wrapOuterLoop(src string, trip int) string {
	forIdx := strings.Index(src, "\tfor ")
	if forIdx < 0 || !strings.HasSuffix(src, "\t}\n}\n") {
		return src
	}
	var sb strings.Builder
	sb.WriteString(src[:forIdx])
	fmt.Fprintf(&sb, "\tfor oo = 0 .. %d {\n", trip)
	sb.WriteString(src[forIdx : len(src)-len("}\n")])
	sb.WriteString("\t}\n}\n")
	return sb.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func compileKernel(src string) (*ir.Loop, error) {
	k, err := lang.ParseKernel(src)
	if err != nil {
		return nil, err
	}
	return lang.Lower(k)
}

// weightedNest draws nest-1 with decreasing probability of deep nests.
func weightedNest(rng *rand.Rand) int {
	switch r := rng.Float64(); {
	case r < 0.45:
		return 0
	case r < 0.8:
		return 1
	case r < 0.95:
		return 2
	default:
		return 3
	}
}

// pickTrip draws a trip count. Round (power-of-two-ish) compile-time trips
// dominate, matching array-dimension conventions in numerical codes; a
// fraction of loops have symbolic bounds.
func pickTrip(large bool, fam family, rng *rand.Rand) (trip, runtime int) {
	unknownProb := 0.2
	if !large {
		unknownProb = 0.35
	}
	if fam == famSearch {
		unknownProb = 1 // searches rarely have static bounds
	}
	largeTrips := []int{256, 400, 512, 1000, 1024, 2048, 4096, 8192}
	smallTrips := []int{8, 12, 16, 24, 32, 50, 64, 100, 128, 256}
	if rng.Float64() < unknownProb {
		if large {
			return 0, 100 + rng.Intn(2000)
		}
		return 0, 15 + rng.Intn(300)
	}
	// Even "large" benchmarks contain plenty of short inner loops.
	if large && rng.Float64() > 0.35 {
		return largeTrips[rng.Intn(len(largeTrips))], 0
	}
	return smallTrips[rng.Intn(len(smallTrips))], 0
}

// TotalLoops counts loops across benchmarks.
func (c *Corpus) TotalLoops() int {
	n := 0
	for _, b := range c.Benchmarks {
		n += len(b.Loops)
	}
	return n
}

// Spec2000 returns the 24 SPEC CPU2000 benchmarks in figure order.
func (c *Corpus) Spec2000() []*Benchmark {
	var out []*Benchmark
	for _, b := range c.Benchmarks {
		if b.Suite == SuiteSpec2000 {
			out = append(out, b)
		}
	}
	return out
}

// Find returns the benchmark with the given name, or nil.
func (c *Corpus) Find(name string) *Benchmark {
	for _, b := range c.Benchmarks {
		if b.Name == name {
			return b
		}
	}
	return nil
}
