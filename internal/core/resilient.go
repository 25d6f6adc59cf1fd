// Resilient CG: the checkpoint/rollback-restart machinery that lets a
// solve survive injected (or real) processor failures. The design
// follows classic coordinated in-memory checkpointing for iterative
// methods: CG's entire loop state is (x, r, p, rho) plus the iteration
// number, so a periodic coordinated snapshot of those four per-rank
// blocks is enough to resume the exact floating-point trajectory — a
// restored solve is bit-identical to the fault-free one from the
// checkpointed iteration onward, which the tests assert.
//
// The snapshot protocol needs no extra communication: CG's collectives
// already synchronise the ranks every iteration, so when any rank has
// completed the merge of iteration k, every other rank has at least
// entered it — ranks can never be more than one checkpoint generation
// apart. Writing alternately into two slots (double buffering) with
// the per-rank iteration stamp committed last therefore guarantees
// that at most one slot is torn by a crash, and a unanimity scan picks
// the newest complete one at restart.
package core

import (
	"math"

	"hpfcg/internal/comm"
	"hpfcg/internal/darray"
	"hpfcg/internal/spmv"
)

// CheckpointStore holds the in-memory checkpoints of one resilient
// solve across restart attempts. It is shared by all ranks of the
// machine (create it once, outside Run) and owned by one logical solve
// at a time. Per-rank entries are only written by that rank's
// goroutine; cross-rank reads are ordered by the solver's collectives
// and by run boundaries, so no locking is needed.
type CheckpointStore struct {
	np      int
	slots   [2]ckptSlot
	reached []int // per-rank iteration started in the latest attempt (lost-work probe)
}

type ckptSlot struct {
	iter    []int // per-rank committed iteration stamp; -1 = empty
	rho     []float64
	x, r, p [][]float64
}

// NewCheckpointStore creates an empty store for an np-rank machine.
func NewCheckpointStore(np int) *CheckpointStore {
	cs := &CheckpointStore{np: np, reached: make([]int, np)}
	for s := range cs.slots {
		cs.slots[s] = ckptSlot{
			iter: make([]int, np),
			rho:  make([]float64, np),
			x:    make([][]float64, np),
			r:    make([][]float64, np),
			p:    make([][]float64, np),
		}
		for r := 0; r < np; r++ {
			cs.slots[s].iter[r] = -1
		}
	}
	return cs
}

// Latest returns the newest complete checkpoint: the highest iteration
// stamp agreed on by every rank of a slot, or -1 when no complete
// checkpoint exists. A slot a crash tore mid-write fails the unanimity
// test and is skipped — the double buffering guarantees the other slot
// is then complete.
func (cs *CheckpointStore) Latest() (slot, iter int) {
	slot, iter = -1, -1
	for s := range cs.slots {
		k := cs.slots[s].iter[0]
		if k < 0 || k <= iter {
			continue
		}
		unanimous := true
		for r := 1; r < cs.np; r++ {
			if cs.slots[s].iter[r] != k {
				unanimous = false
				break
			}
		}
		if unanimous {
			slot, iter = s, k
		}
	}
	return slot, iter
}

// Reached returns the iteration the given rank had started in the
// latest attempt — the lost-work probe: asked about the rank a
// comm.PeerFailure names, it is how far the failed attempt got before
// the crash (the survivors run on a little further, until they need
// the dead rank; that is not work the crash interrupted).
func (cs *CheckpointStore) Reached(rank int) int { return cs.reached[rank] }

// save snapshots one rank's loop state into a slot: payload first, the
// iteration stamp last. The copies contain no communication or modeled
// compute, so an injected crash cannot fire mid-snapshot — per rank the
// commit is atomic, and torn checkpoints only arise from some ranks
// not reaching save at all (which the stamp unanimity detects).
func (cs *CheckpointStore) save(slot, rank, iter int, rho float64, x, r, p *darray.Vector) {
	sl := &cs.slots[slot]
	sl.x[rank] = append(sl.x[rank][:0], x.Local()...)
	sl.r[rank] = append(sl.r[rank][:0], r.Local()...)
	sl.p[rank] = append(sl.p[rank][:0], p.Local()...)
	sl.rho[rank] = rho
	sl.iter[rank] = iter
}

// restore copies one rank's checkpointed state back and returns rho.
func (cs *CheckpointStore) restore(slot, rank int, x, r, p *darray.Vector) float64 {
	sl := &cs.slots[slot]
	copy(x.Local(), sl.x[rank])
	copy(r.Local(), sl.r[rank])
	copy(p.Local(), sl.p[rank])
	return sl.rho[rank]
}

// Resilience configures CGResilient.
type Resilience struct {
	// Store holds checkpoints across restart attempts; required.
	Store *CheckpointStore
	// Interval checkpoints every Interval iterations (0 disables
	// checkpointing; the solve then always restarts from scratch).
	Interval int
}

// restoreGuardTol triggers residual replacement at restore when the
// restored recurrence residual deviates from the true residual b - A·x
// by more than restoreGuardTol·||b||.
const restoreGuardTol = 1e-8

// CGResilient is CG with coordinated in-memory checkpointing and
// rollback restart. Run it like CG; when the machine kills the run
// with a comm.PeerFailure, re-run the same function (after
// fault-injector Advance) — the solver finds the newest complete
// checkpoint in the store and resumes from it, replaying the exact CG
// trajectory. At restore it recomputes the true residual b - A·x and
// replaces the checkpointed r when the two deviate beyond the guard
// tolerance, so even a corrupted (or very old) checkpoint still
// converges. Checkpoint writes charge modeled stable-storage time
// (t_s + bytes·t_w per rank) via ChargeIO, making the
// interval-vs-MTBF trade-off of experiment E20 measurable.
func CGResilient(p *comm.Proc, A spmv.Operator, b, x *darray.Vector, opt Options, res Resilience) (Stats, error) {
	if res.Store == nil {
		panic("core: CGResilient requires Resilience.Store")
	}
	var o solver
	ck := checkpointer{cs: res.Store, rank: p.Rank(), interval: res.Interval}
	slot, citer := ck.cs.Latest()
	if citer < 0 {
		// Clean start: CG's prologue.
		ck.cs.reached[ck.rank] = 0
		rnsq, done := o.open(p, A, b, x, opt)
		if done {
			return o.finish()
		}
		c := newCG(&o, A, nil, b, x)
		c.seed(&o, rnsq)
		return c.iterate(&o, &ck)
	}
	// Rollback restart: resume from the newest complete checkpoint. The
	// restored (x, r, p, rho) are bit-exact copies of the loop state
	// after iteration citer, so the continuation replays the fault-free
	// trajectory exactly — unless the guard below finds the recurrence
	// residual has drifted from the truth.
	o.begin(p, A.N(), b, opt)
	c := newCG(&o, A, nil, b, x)
	c.rho = ck.cs.restore(slot, ck.rank, x, c.r, c.p)
	o.Restores++
	o.Iterations, o.StartIteration = citer, citer
	ck.cs.reached[ck.rank] = citer
	o.setNorm(o.normSq(b))
	// Residual-replacement guard: one extra mat-vec per restore.
	o.residual(A, b, x, c.q) // q = b - A·x, the true residual
	d := [2]float64{c.q.DiffNormSqLocal(c.r), c.q.NormSqLocal()}
	o.DotProducts += 2
	o.merge(d[:])
	if math.Sqrt(d[0]) > restoreGuardTol*o.bn {
		c.r.CopyFrom(c.q)
		c.rho = d[1]
		o.Replacements++
	}
	if o.stop(math.Sqrt(c.rho) / o.bn) {
		return o.finish()
	}
	return c.iterate(&o, &ck)
}

// checkpointer is what CGResilient adds to each iteration of the plain
// recurrence. A nil checkpointer does nothing.
type checkpointer struct {
	cs             *CheckpointStore
	rank, interval int
}

// begin records that iteration k has started — the lost-work probe, so
// it never runs ahead of an iteration actually begun.
func (ck *checkpointer) begin(k int) {
	if ck != nil {
		ck.cs.reached[ck.rank] = k
	}
}

// end writes the checkpoint after an unconverged iteration k when one
// is due.
func (ck *checkpointer) end(k int, c *cg, o *solver) {
	if ck == nil || ck.interval <= 0 || k%ck.interval != 0 {
		return
	}
	// Alternate slots by checkpoint generation so a crash during
	// generation g+1 leaves generation g intact.
	ck.cs.save((k/ck.interval)%2, ck.rank, k, c.rho, c.x, c.r, c.p)
	o.Checkpoints++
	// Charge the stable-storage write: three vectors of 8-byte words
	// per rank, modeled like one message injection.
	o.p.ChargeIO(3 * 8 * len(c.x.Local()))
}
