// Package features extracts the paper's Table-1 block features: the block
// length plus, for each of twelve possibly-overlapping instruction
// categories, the fraction of the block's instructions in that category.
//
// The features are deliberately the cheapest imaginable: one pass over the
// instructions, no dependence graph. Presenting categories as fractions of
// block size lets the learner generalize across block sizes, exactly as the
// paper argues.
package features

import (
	"fmt"
	"math/bits"
	"strings"

	"schedfilter/internal/ir"
)

// Count is the number of features in a Vector.
const Count = 1 + ir.NumCategories

// Names lists feature names in Vector order. Index 0 is the block length;
// the rest follow ir.CategoryNames.
var Names = func() [Count]string {
	var n [Count]string
	n[0] = "bbLen"
	for i, c := range ir.CategoryNames {
		n[i+1] = c + "s"
	}
	return n
}()

// Vector is one block's feature vector: [bbLen, fraction per category...].
type Vector [Count]float64

// Extract computes the feature vector of an instruction sequence in a
// single pass.
func Extract(instrs []ir.Instr) Vector {
	var v Vector
	n := len(instrs)
	v[0] = float64(n)
	if n == 0 {
		return v
	}
	var counts [ir.NumCategories]int
	for i := range instrs {
		// Iterate only the set category bits instead of probing all
		// twelve per instruction.
		for cats := uint(instrs[i].Op.Categories()); cats != 0; cats &= cats - 1 {
			counts[bits.TrailingZeros(cats)]++
		}
	}
	inv := 1 / float64(n)
	for c := 0; c < ir.NumCategories; c++ {
		v[c+1] = float64(counts[c]) * inv
	}
	return v
}

// ExtractBlock computes the feature vector of a basic block.
func ExtractBlock(b *ir.Block) Vector { return Extract(b.Instrs) }

// Slice returns the vector as a []float64 (for the learner).
func (v Vector) Slice() []float64 { return v[:] }

// BBLen returns the block-length feature.
func (v Vector) BBLen() int { return int(v[0]) }

// Fraction returns the fraction of instructions in the given category.
// The category must be a single bit; compound masks and the zero value
// return 0.
func (v Vector) Fraction(c ir.Category) float64 {
	if c == 0 || c&(c-1) != 0 {
		return 0
	}
	if i := bits.TrailingZeros16(uint16(c)); i < ir.NumCategories {
		return v[i+1]
	}
	return 0
}

func (v Vector) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s=%d", Names[0], int(v[0]))
	for i := 1; i < Count; i++ {
		if v[i] != 0 {
			fmt.Fprintf(&b, " %s=%.4f", Names[i], v[i])
		}
	}
	return b.String()
}
