package comm

import (
	"math"
	"reflect"
	"testing"

	"hpfcg/internal/topology"
)

func TestAlltoallVInts(t *testing.T) {
	for _, np := range testNPs {
		m := testMachine(np)
		m.Run(func(p *Proc) {
			segs := make([][]int, np)
			for d := range segs {
				segs[d] = []int{p.Rank()*100 + d, -d}
			}
			got := p.AlltoallVInts(segs)
			for s := range got {
				want := []int{s*100 + p.Rank(), -p.Rank()}
				if !reflect.DeepEqual(got[s], want) {
					t.Errorf("np=%d rank=%d from %d: %v want %v", np, p.Rank(), s, got[s], want)
				}
			}
		})
	}
}

// Row and column groups of a 2-D grid, broadcasting and reducing
// concurrently — the checkerboard use case.
func TestGridGroups(t *testing.T) {
	rows, cols := 2, 3
	np := rows * cols
	m := testMachine(np)
	m.Run(func(p *Proc) {
		pr, pc := p.Rank()/cols, p.Rank()%cols
		colRanks := make([]int, rows)
		for r := 0; r < rows; r++ {
			colRanks[r] = r*cols + pc
		}
		rowRanks := make([]int, cols)
		for c := 0; c < cols; c++ {
			rowRanks[c] = pr*cols + c
		}
		colG := NewGroup(p, colRanks)
		rowG := NewGroup(p, rowRanks)
		if colG.Size() != rows || rowG.Size() != cols {
			t.Errorf("group sizes %d %d", colG.Size(), rowG.Size())
		}
		if colG.Index() != pr || rowG.Index() != pc {
			t.Errorf("group indices %d %d, want %d %d", colG.Index(), rowG.Index(), pr, pc)
		}

		// Broadcast down each column from grid row 0.
		var x []float64
		if pr == 0 {
			x = []float64{float64(100 + pc)}
		}
		x = colG.BcastFloats(p, x)
		if x[0] != float64(100+pc) {
			t.Errorf("rank %d col bcast got %v", p.Rank(), x)
		}

		// Reduce across each row onto column 0.
		sum := rowG.ReduceSumFloats(p, []float64{float64(pc + 1)})
		if pc == 0 {
			want := float64(cols*(cols+1)) / 2
			if sum[0] != want {
				t.Errorf("row reduce = %v, want %g", sum, want)
			}
		} else if sum != nil {
			t.Errorf("non-root got %v", sum)
		}
	})
}

func TestGroupNonContiguousRanks(t *testing.T) {
	np := 8
	m := testMachine(np)
	m.Run(func(p *Proc) {
		// Odd ranks form a group; even ranks a second group, exercising
		// concurrent groups with arbitrary members in an order that does
		// not start at the lowest rank.
		var ranks []int
		for r := np - 2 + p.Rank()%2; r >= 0; r -= 2 {
			ranks = append(ranks, r)
		}
		g := NewGroup(p, ranks)
		var x []float64
		if g.Index() == 0 {
			x = []float64{float64(p.Rank())}
		}
		x = g.BcastFloats(p, x)
		want := float64(ranks[0])
		if x[0] != want {
			t.Errorf("rank %d group bcast got %g want %g", p.Rank(), x[0], want)
		}
		sum := g.ReduceSumFloats(p, []float64{float64(p.Rank())})
		if g.Index() != 0 {
			return
		}
		wantSum := 0.0
		for _, r := range ranks {
			wantSum += float64(r)
		}
		if math.Abs(sum[0]-wantSum) > 1e-12 {
			t.Errorf("group reduce %g want %g", sum[0], wantSum)
		}
	})
}

func TestGroupSingleton(t *testing.T) {
	m := testMachine(3)
	m.Run(func(p *Proc) {
		g := NewGroup(p, []int{p.Rank()})
		x := g.BcastFloats(p, []float64{7})
		if x[0] != 7 {
			t.Errorf("singleton bcast %v", x)
		}
		s := g.ReduceSumFloats(p, []float64{3})
		if s[0] != 3 {
			t.Errorf("singleton reduce %v", s)
		}
	})
}

func TestGroupValidation(t *testing.T) {
	cases := []struct {
		name string
		fn   func(p *Proc)
	}{
		{"not-member", func(p *Proc) {
			if p.Rank() == 0 {
				NewGroup(p, []int{1})
			}
		}},
		{"out-of-range", func(p *Proc) { NewGroup(p, []int{p.Rank(), 99}) }},
		{"duplicate", func(p *Proc) { NewGroup(p, []int{p.Rank(), p.Rank()}) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			NewMachine(2, topology.Ring{}, topology.DefaultCostParams()).Run(c.fn)
		})
	}
}
