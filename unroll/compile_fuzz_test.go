package unroll_test

import (
	"encoding/binary"
	"math"
	"sync"
	"testing"

	"metaopt/unroll"
)

var fuzzOnce struct {
	sync.Once
	comps map[unroll.Algorithm]*unroll.CompiledPredictor
	fill  [][]float64 // corpus feature vectors the fuzzed one is batched among
	err   error
}

// fuzzCompiled compiles one predictor per algorithm and collects the
// corpus feature vectors that surround a fuzzed vector inside a batch.
func fuzzCompiled(f *testing.F) (map[unroll.Algorithm]*unroll.CompiledPredictor, [][]float64) {
	f.Helper()
	fuzzOnce.Do(func() {
		c, err := unroll.GenerateCorpus(5, 0.08)
		if err != nil {
			fuzzOnce.err = err
			return
		}
		d, err := unroll.CollectDataset(c, unroll.CollectOptions{Seed: 1, Runs: 5})
		if err != nil {
			fuzzOnce.err = err
			return
		}
		fuzzOnce.comps = make(map[unroll.Algorithm]*unroll.CompiledPredictor)
		for _, alg := range allAlgorithms {
			p, err := unroll.Train(d, unroll.TrainOptions{Algorithm: alg})
			if err != nil {
				fuzzOnce.err = err
				return
			}
			if fuzzOnce.comps[alg], err = unroll.Compile(p); err != nil {
				fuzzOnce.err = err
				return
			}
		}
		m := unroll.Itanium2()
		for _, b := range c.Benchmarks {
			for _, l := range b.Loops {
				if len(fuzzOnce.fill) < maxFuzzBatch {
					fuzzOnce.fill = append(fuzzOnce.fill, unroll.Features(l, m))
				}
			}
		}
	})
	if fuzzOnce.err != nil {
		f.Fatal(fuzzOnce.err)
	}
	return fuzzOnce.comps, fuzzOnce.fill
}

// maxFuzzBatch is one more than serve's default micro-batch, so batches
// span several four-query blocks of the distance kernel plus its tail.
const maxFuzzBatch = 33

// FuzzBatchPositionInvariant checks the property serve's merged
// micro-batches rely on: the factor PredictFeaturesBatch gives a vector
// does not depend on the batch around it. For every algorithm an arbitrary
// full-length vector is predicted alone and at a fuzzed position inside a
// fuzzed-size batch of corpus vectors, and the two factors must agree. A
// vector carrying NaN or ±Inf must be rejected both ways.
func FuzzBatchPositionInvariant(f *testing.F) {
	comps, fill := fuzzCompiled(f)
	seed := make([]byte, 8*unroll.NumFeatures)
	f.Add(seed, uint8(0), uint8(0))
	seed = append([]byte(nil), seed...)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed, uint8(6), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, size, pos uint8) {
		if len(raw) < 8*unroll.NumFeatures {
			t.Skip()
		}
		v := make([]float64, unroll.NumFeatures)
		finite := true
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			if math.IsNaN(v[i]) || math.IsInf(v[i], 0) {
				finite = false
			}
		}
		n := 1 + int(size)%maxFuzzBatch
		at := int(pos) % n
		batch := make([][]float64, n)
		for i := range batch {
			batch[i] = fill[i%len(fill)]
		}
		batch[at] = v
		for alg, c := range comps {
			alone, errAlone := c.PredictFeaturesBatch([][]float64{v}, nil)
			within, errWithin := c.PredictFeaturesBatch(batch, nil)
			if !finite {
				if errAlone == nil || errWithin == nil {
					t.Fatalf("%s: non-finite vector accepted (alone err=%v, in batch err=%v)", alg, errAlone, errWithin)
				}
				continue
			}
			if errAlone != nil || errWithin != nil {
				t.Fatalf("%s: finite vector rejected (alone err=%v, in batch err=%v)", alg, errAlone, errWithin)
			}
			if alone[0] != within[at] {
				t.Fatalf("%s: factor %d alone, %d at position %d of %d", alg, alone[0], within[at], at, n)
			}
		}
	})
}
