package ripper

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Induction works on the dataset's attribute lists, as SLIQ (Mehta,
// Agrawal & Rissanen, EDBT 1996) and SPRINT (Shafer, Agrawal & Mehta, VLDB
// 1996) do: each attribute's (value, instance, label) triples, sorted by
// value once per Induce call. A condition then covers a prefix (<=) or a
// suffix (>=) of its attribute's list, and instance sets are bitsets over
// instance indices.

// entry is one instance in an attribute list.
type entry struct {
	v   float64
	i   int32
	pos bool
}

// newColumns returns one attribute list per attribute of ds, each sorted
// by value with ties in instance order, carved from one backing array.
// Each list is a counting sort by the rank of the value among the
// attribute's distinct values, which is stable and avoids a comparison
// sort of the entries. −0 is stored as +0: the two compare equal, so a
// condition on either prints the same value whatever order a sort leaves
// them in.
func newColumns(ds *Dataset) [][]entry {
	n := ds.Len()
	if n == 0 {
		return nil
	}
	numAttrs := len(ds.X[0])
	backing := make([]entry, numAttrs*n)
	cols := make([][]entry, numAttrs)
	vals := make([]float64, n)
	uniq := make([]float64, n)
	rank := make([]int32, n)
	var next []int32
	for a := range cols {
		for i := range vals {
			v := ds.X[i][a]
			if v == 0 {
				v = 0
			}
			vals[i] = v
		}
		u := append(uniq[:0], vals...)
		slices.Sort(u)
		u = slices.Compact(u)
		// next[r] is where the next instance of rank r goes.
		next = append(next[:0], make([]int32, len(u)+1)...)
		for i, v := range vals {
			r, _ := slices.BinarySearch(u, v)
			rank[i] = int32(r)
			next[r+1]++
		}
		for r := 1; r < len(next); r++ {
			next[r] += next[r-1]
		}
		col := backing[a*n : (a+1)*n : (a+1)*n]
		for i, v := range vals {
			r := rank[i]
			col[next[r]] = entry{v: v, i: int32(i), pos: ds.Y[i]}
			next[r]++
		}
		cols[a] = col
	}
	return cols
}

// distinct counts the distinct values of a sorted attribute list.
func distinct(col []entry) int {
	d := 0
	for j := range col {
		if j == 0 || col[j].v != col[j-1].v {
			d++
		}
	}
	return d
}

// bitset is a set of instance indices; bits at and above the dataset size
// stay zero.
type bitset []uint64

func (b bitset) set(i int32)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) unset(i int32)    { b[i>>6] &^= 1 << (uint(i) & 63) }
func (b bitset) has(i int32) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b bitset) count() int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

// countAnd returns |b ∩ o|.
func (b bitset) countAnd(o bitset) int {
	c := 0
	for w := range b {
		c += bits.OnesCount64(b[w] & o[w])
	}
	return c
}

// countAnd3 returns |a ∩ b ∩ c|.
func countAnd3(a, b, c bitset) int {
	n := 0
	for w := range a {
		n += bits.OnesCount64(a[w] & b[w] & c[w])
	}
	return n
}

func (b bitset) and(o bitset) {
	for w := range b {
		b[w] &= o[w]
	}
}

func (b bitset) or(o bitset) {
	for w := range b {
		b[w] |= o[w]
	}
}

func (b bitset) andNot(o bitset) {
	for w := range b {
		b[w] &^= o[w]
	}
}

// filter copies the entries of src whose instance is in b to dst, keeping
// their order, and returns them. dst may be src itself, and must be at
// least as long. The copy is branch-free: membership in a covered set is
// close to a coin flip, which a branch would mispredict.
func (b bitset) filter(dst, src []entry) []entry {
	k := 0
	for _, e := range src {
		dst[k] = e
		k += int(b[e.i>>6] >> (uint(e.i) & 63) & 1)
	}
	return dst[:k]
}

// each calls f for every member in increasing index order.
func (b bitset) each(f func(i int32)) {
	for w, word := range b {
		for word != 0 {
			f(int32(w*64 + bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
}

// andCond removes from b every instance that fails c: the suffix of c's
// attribute list above an <= bound, or the prefix below a >= bound.
func andCond(b bitset, cols [][]entry, c Condition) {
	col := cols[c.Attr]
	if c.LE {
		for _, e := range col[sort.Search(len(col), func(j int) bool { return col[j].v > c.Val }):] {
			b.unset(e.i)
		}
		return
	}
	for _, e := range col[:sort.Search(len(col), func(j int) bool { return col[j].v >= c.Val })] {
		b.unset(e.i)
	}
}

// coverage returns the set of instances r covers. It is computed once per
// distinct rule per Induce call and shared: callers must not modify it.
func (ind *inducer) coverage(r *Rule) bitset {
	key := ind.key[:0]
	for _, c := range r.Conds {
		key = binary.LittleEndian.AppendUint32(key, uint32(c.Attr))
		if c.LE {
			key = append(key, 1)
		} else {
			key = append(key, 0)
		}
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(c.Val))
	}
	ind.key = key
	if b, ok := ind.covers[string(key)]; ok {
		return b
	}
	b := slices.Clone(ind.all)
	for _, c := range r.Conds {
		andCond(b, ind.cols, c)
	}
	ind.covers[string(key)] = b
	return b
}
