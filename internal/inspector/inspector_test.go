package inspector

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"hpfcg/internal/comm"
	"hpfcg/internal/dist"
	"hpfcg/internal/sparse"
	"hpfcg/internal/topology"
)

func machine(np int) *comm.Machine {
	return comm.NewMachine(np, topology.Hypercube{}, topology.DefaultCostParams())
}

func TestExchangeDelivers(t *testing.T) {
	for _, np := range []int{1, 2, 3, 4, 8} {
		n := 6 * np
		d := dist.NewBlock(n, np)
		machine(np).Run(func(p *comm.Proc) {
			r := p.Rank()
			lo := d.Lo(r)
			// Each processor needs its left and right neighbours' border
			// elements plus one far element (global 0).
			var needs []int
			if lo > 0 {
				needs = append(needs, lo-1)
			}
			hi := lo + d.Count(r)
			if hi < n {
				needs = append(needs, hi)
			}
			needs = append(needs, 0, 0) // duplicate + possibly own
			s := Build(p, d, needs)

			local := make([]float64, d.Count(r))
			for off := range local {
				local[off] = float64(10 * d.Global(r, off))
			}
			for rep := 0; rep < 3; rep++ { // schedule reuse
				ghosts := s.Exchange(local)
				for _, g := range needs {
					if d.Owner(g) == r {
						continue
					}
					if got := ghosts[s.GhostSlot(g)]; got != float64(10*g) {
						t.Errorf("np=%d rank=%d rep=%d: ghost %d = %g, want %g",
							np, r, rep, g, got, float64(10*g))
						return
					}
				}
			}
		})
	}
}

func TestOwnElementsExcluded(t *testing.T) {
	np := 2
	d := dist.NewBlock(10, np)
	machine(np).Run(func(p *comm.Proc) {
		lo := d.Lo(p.Rank())
		s := Build(p, d, []int{lo, lo, lo + 1}) // all owned locally
		if s.NGhosts() != 0 {
			t.Errorf("rank %d: %d ghosts for own elements", p.Rank(), s.NGhosts())
		}
		if got := s.Exchange(make([]float64, d.Count(p.Rank()))); len(got) != 0 {
			t.Errorf("expected empty ghost buffer, got %v", got)
		}
	})
}

// The whole point: halo exchange moves only the needed elements, and
// only between neighbouring processors.
func TestHaloBeatsBroadcast(t *testing.T) {
	np := 8
	n := 8 * 64
	d := dist.NewBlock(n, np)
	st := machine(np).Run(func(p *comm.Proc) {
		r := p.Rank()
		lo := d.Lo(r)
		hi := lo + d.Count(r)
		var needs []int
		for b := 1; b <= 2; b++ { // bandwidth-2 halo
			if lo-b >= 0 {
				needs = append(needs, lo-b)
			}
			if hi+b-1 < n {
				needs = append(needs, hi+b-1)
			}
		}
		s := Build(p, d, needs)
		local := make([]float64, d.Count(r))
		s.Exchange(local)
	})
	// Broadcast of the full vector would be ~ n*8 bytes * (np-1)/np per
	// proc; the halo moves 2 elements per border per proc per exchange.
	// Build itself exchanges index lists, so allow that overhead, but
	// the total must stay far below one full-vector broadcast.
	broadcastBytes := int64(n * 8)
	if st.TotalBytes >= broadcastBytes {
		t.Errorf("halo moved %d bytes, >= one broadcast %d", st.TotalBytes, broadcastBytes)
	}
}

func TestBuildValidation(t *testing.T) {
	m := machine(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected out-of-range panic")
		}
	}()
	m.Run(func(p *comm.Proc) {
		Build(p, dist.NewBlock(4, 2), []int{9})
	})
}

// An exchanged block that is not the rank's local block is refused
// before anything is sent, for Build's schedules and FromLists' alike.
func TestExchangeWrongLengthPanics(t *testing.T) {
	d := dist.NewBlock(4, 2)
	for name, build := range map[string]func(p *comm.Proc) *Schedule{
		"Build": func(p *comm.Proc) *Schedule { return Build(p, d, []int{0, 3}) },
		"FromLists": func(p *comm.Proc) *Schedule {
			other := 1 - p.Rank()
			sendTo, recvCount := make([][]int, 2), make([]int, 2)
			sendTo[other], recvCount[other] = []int{0}, 1
			return FromLists(p, 2, sendTo, recvCount)
		},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "exchange of 3 elements, rank owns 2") {
					t.Errorf("%s: recovered %v, want the wrong-length panic", name, r)
				}
			}()
			machine(2).Run(func(p *comm.Proc) {
				s := build(p)
				s.ExchangeBlock([][]float64{make([]float64, 2), make([]float64, 3)})
			})
		}()
	}
}

// FromLists lays ghosts out by ascending source, each source's run in
// its send order, and needs no communication to build.
func TestFromListsDelivers(t *testing.T) {
	const np = 3
	st := machine(np).Run(func(p *comm.Proc) {
		r := p.Rank()
		local := []float64{float64(10 * r), float64(10*r + 1), float64(10*r + 2)}
		// Every rank sends its offsets 2, 0 to each other rank.
		sendTo, recvCount := make([][]int, np), make([]int, np)
		for q := 0; q < np; q++ {
			if q != r {
				sendTo[q], recvCount[q] = []int{2, 0}, 2
			}
		}
		s := FromLists(p, len(local), sendTo, recvCount)
		if p.Stats().MsgsSent != 0 {
			t.Errorf("rank %d: FromLists sent %d messages", r, p.Stats().MsgsSent)
		}
		var want []float64
		for q := 0; q < np; q++ {
			if q != r {
				want = append(want, float64(10*q+2), float64(10*q))
			}
		}
		for rep := 0; rep < 2; rep++ {
			got := s.Exchange(local)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("rank %d rep %d: ghosts %v, want %v", r, rep, got, want)
			}
		}
	})
	if st.TotalMsgs != 2*np*(np-1) {
		t.Errorf("%d messages for two exchanges, want %d", st.TotalMsgs, 2*np*(np-1))
	}
}

func TestGhostSlotUnknownPanics(t *testing.T) {
	m := machine(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected unknown-slot panic")
		}
	}()
	m.Run(func(p *comm.Proc) {
		d := dist.NewBlock(4, 2)
		s := Build(p, d, nil)
		s.GhostSlot(1)
	})
}

// Property: for random need sets, Exchange delivers exactly the owner's
// values, under block and cyclic distributions.
func TestExchangeQuick(t *testing.T) {
	f := func(seed int64, nRaw, npRaw uint8, cyclic bool) bool {
		np := int(npRaw%4) + 1
		n := int(nRaw%30) + np
		var d dist.Dist = dist.NewBlock(n, np)
		if cyclic {
			d = dist.NewCyclic(n, np)
		}
		ok := true
		machine(np).Run(func(p *comm.Proc) {
			rng := rand.New(rand.NewSource(seed + int64(p.Rank())))
			needs := make([]int, rng.Intn(10))
			for i := range needs {
				needs[i] = rng.Intn(n)
			}
			s := Build(p, d, needs)
			r := p.Rank()
			local := make([]float64, d.Count(r))
			for off := range local {
				local[off] = float64(d.Global(r, off)) + 0.5
			}
			ghosts := s.Exchange(local)
			for _, g := range needs {
				if d.Owner(g) == r {
					continue
				}
				if ghosts[s.GhostSlot(g)] != float64(g)+0.5 {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// ReverseExchange sends each ghost value back to its owner, which adds
// it at the offset the forward exchange reads it from, after what the
// offset already holds and in ascending source rank; only pairs that
// share ghosts exchange, one message each; and after a warm-up call it
// allocates nothing.
func TestReverseExchangeAddsInSourceOrder(t *testing.T) {
	const np = 3
	big := 1e16 // a variable, so the checks below round at run time
	// Every rank sends its offsets 2, 0 to each other rank, so rank r's
	// two ghosts from q are q's offsets 2 then 0. Offset 2 starts at big
	// and takes 1 from the lower-ranked of its two sources and -big from
	// the higher: ascending order rounds 1 away ((big+1)-big = 0),
	// descending order keeps it ((big-big)+1 = 1). Offset 1 is never a
	// ghost and keeps its value.
	if (big+1)-big == (big-big)+1 {
		t.Fatal("values do not tell the two orders apart")
	}
	var allocs float64
	machine(np).Run(func(p *comm.Proc) {
		r := p.Rank()
		sendTo, recvCount := make([][]int, np), make([]int, np)
		for q := 0; q < np; q++ {
			if q != r {
				sendTo[q], recvCount[q] = []int{2, 0}, 2
			}
		}
		s := FromLists(p, 3, sendTo, recvCount)
		ghosts := make([]float64, 0, s.NGhosts())
		for q := 0; q < np; q++ {
			if q == r {
				continue
			}
			toBig := 1.0
			if r > 3-q-r { // r is the higher of q's two sources
				toBig = -big
			}
			ghosts = append(ghosts, toBig, float64(10*r+q))
		}
		local := []float64{0.5, 7, big}
		sent := p.Stats().MsgsSent
		s.ReverseExchange(ghosts, local)
		if got := p.Stats().MsgsSent - sent; got != np-1 {
			t.Errorf("rank %d: sent %d messages, want %d", r, got, np-1)
		}
		want0 := 0.5
		for q := 0; q < np; q++ {
			if q != r {
				want0 += float64(10*q + r)
			}
		}
		if want := []float64{want0, 7, 0}; fmt.Sprint(local) != fmt.Sprint(want) {
			t.Errorf("rank %d: merged %v, want %v", r, local, want)
		}

		p.Barrier()
		if r == 0 {
			allocs = testing.AllocsPerRun(5, func() { s.ReverseExchange(ghosts, local) })
		} else {
			for range 6 {
				s.ReverseExchange(ghosts, local)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("ReverseExchange allocated %.1f times per call in steady state, want 0", allocs)
	}
}

// A reverse exchange whose ghost or local block does not match the
// schedule is refused before anything is sent.
func TestReverseExchangeWrongLengthPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "reverse exchange of 1 ghosts into 2 elements") {
			t.Errorf("recovered %v, want the wrong-length panic", r)
		}
	}()
	machine(2).Run(func(p *comm.Proc) {
		other := 1 - p.Rank()
		sendTo, recvCount := make([][]int, 2), make([]int, 2)
		sendTo[other], recvCount[other] = []int{0}, 1
		FromLists(p, 3, sendTo, recvCount).ReverseExchange(make([]float64, 1), make([]float64, 2))
	})
}

// ownerOnly hides a layout's Lo, so Build tells owned indices by Owner
// as it does for every non-contiguous layout.
type ownerOnly struct{ dist.Dist }

// TestBuildOwnedRangeMatchesOwner: Build's owned-range test on a
// contiguous layout yields the schedule Owner yields — every slot, count
// and send list — from a rank's raw row columns (owned, duplicate and
// unsorted indices) and from its sorted ghosts, at np that do and do
// not divide n, on an irregular layout and on a CYCLIC one.
func TestBuildOwnedRangeMatchesOwner(t *testing.T) {
	for _, A := range []*sparse.CSR{sparse.Laplace2D(8, 8), sparse.RandomSPD(61, 5, 3)} {
		n := A.NRows
		for _, np := range []int{1, 2, 3, 4, 8} {
			// Irregular cuts at n·r²/np² leave the first ranks small or empty.
			cuts := make([]int, np+1)
			for r := range cuts {
				cuts[r] = n * r * r / (np * np)
			}
			for _, d := range []dist.Dist{dist.NewBlock(n, np), dist.NewIrregular(cuts), dist.NewCyclic(n, np)} {
				for _, sorted := range []bool{false, true} {
					var got, want [8]*Schedule
					run := func(d dist.Dist, out *[8]*Schedule) {
						machine(np).Run(func(p *comm.Proc) {
							var needs []int
							for g := 0; g < n; g++ {
								if d.Owner(g) == p.Rank() {
									needs = append(needs, A.Col[A.RowPtr[g]:A.RowPtr[g+1]]...)
								}
							}
							if sorted {
								needs = slices.DeleteFunc(needs, func(g int) bool { return d.Owner(g) == p.Rank() })
								slices.Sort(needs)
								needs = slices.Compact(needs)
							}
							out[p.Rank()] = Build(p, d, needs)
						})
					}
					run(d, &got)
					run(ownerOnly{d}, &want)
					for r := 0; r < np; r++ {
						g, w := got[r], want[r]
						if g.nloc != w.nloc || g.nGhost != w.nGhost || !maps.Equal(g.ghostOf, w.ghostOf) ||
							!slices.Equal(g.recvCount, w.recvCount) || !slices.Equal(g.recvStart, w.recvStart) ||
							!slices.EqualFunc(g.sendTo, w.sendTo, slices.Equal[[]int]) {
							t.Errorf("n=%d %s np=%d sorted=%v rank %d: schedule differs from Owner's", n, d.Name(), np, sorted, r)
						}
					}
				}
			}
		}
	}
}
