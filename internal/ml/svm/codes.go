package svm

import (
	"math/rand"

	"metaopt/internal/ml"
)

// Codes is an output-code matrix for multi-class classification with binary
// machines (Dietterich & Bakiri): row c is the ±1 codeword of class c+1.
// Every bit induces one binary problem; a query's bit predictions are
// matched to the nearest codeword.
type Codes struct {
	Bits [][]int8 // [class][bit] ∈ {+1, −1}
}

// NumBits returns the number of binary classifiers the code requires.
func (c Codes) NumBits() int {
	if len(c.Bits) == 0 {
		return 0
	}
	return len(c.Bits[0])
}

// NumClasses returns the number of codewords.
func (c Codes) NumClasses() int { return len(c.Bits) }

// Target returns the binary label of class (1-based) under bit b.
func (c Codes) Target(class, bit int) float64 {
	return float64(c.Bits[class-1][bit])
}

// OneVsRest returns the identity code the paper uses: one bit per class,
// positive only for that class.
func OneVsRest(classes int) Codes {
	bits := make([][]int8, classes)
	for c := range bits {
		bits[c] = make([]int8, classes)
		for b := range bits[c] {
			if b == c {
				bits[c][b] = 1
			} else {
				bits[c][b] = -1
			}
		}
	}
	return Codes{Bits: bits}
}

// Random returns a random error-correcting code with the given number of
// bits (the paper mentions error-correcting codewords as a refinement).
// Degenerate bits (all classes equal) are re-drawn.
func Random(classes, bits int, seed int64) Codes {
	rng := rand.New(rand.NewSource(seed))
	code := Codes{Bits: make([][]int8, classes)}
	for c := range code.Bits {
		code.Bits[c] = make([]int8, bits)
	}
	for b := 0; b < bits; b++ {
		for {
			pos := 0
			for c := 0; c < classes; c++ {
				if rng.Intn(2) == 0 {
					code.Bits[c][b] = -1
				} else {
					code.Bits[c][b] = 1
					pos++
				}
			}
			if pos > 0 && pos < classes {
				break
			}
		}
	}
	return code
}

// Decode maps per-bit decision values to the class whose codeword is
// closest in Hamming distance over the signs, breaking ties with the total
// hinge loss (margin-aware), as error-correcting output-code decoders do.
func (c Codes) Decode(scores []float64) int {
	return ml.NearestCodeword(c.Bits, scores)
}

// orOneVsRest returns c, or the one-vs-rest code over ml.NumClasses when c
// is empty.
func (c Codes) orOneVsRest() Codes {
	if c.NumClasses() == 0 {
		return OneVsRest(ml.NumClasses)
	}
	return c
}
