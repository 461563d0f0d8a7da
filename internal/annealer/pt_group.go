package annealer

import (
	"repro/internal/metropolis"
	"repro/internal/qubo"
	"repro/internal/rng"
)

// Lockstep parallel tempering: up to eight independent PT reads of one
// Ising model on the SA lane driver (sa_group.go), one lane per read.
// PT's inner step is SA's step at a fixed β — index draw, dE = g·f,
// uphill test, row update, strict new-best check — so the lanes run on
// saStepx8 unchanged. Each lane keeps its k replicas in k buffers of
// the [8][k][np] g/field block; before a replica's sweep, lanoff[j] is
// pointed at the buffer lane j's replica occupies and that buffer's
// energy is loaded, and after it the energy is stored back. All lanes
// step the same replica at once, so the rung's β is shared. A lane's
// bestE spans all its replicas, which is PT's best over the ladder. The
// replica exchange runs in Go on each lane's own "mc" stream and only
// permutes the lane's slot table: no buffer is copied.

// ParallelTemperingGroup runs len(rs) ≤ 8 independent parallel-
// tempering reads of is and stores lane j's result in out[j], bit-
// identical to qubo.ParallelTempering(is, rs[j], opts). Like the one-
// read path it derives its streams from rs[j] without advancing it.
// Inputs SimulatedAnnealingGroup would run one read at a time (models
// above 64 spins, adjacency the dense rows cannot represent, hosts
// without AVX2) run each lane through qubo.ParallelTempering.
func ParallelTemperingGroup(is *qubo.Ising, rs []*rng.Source, opts qubo.PTOptions, out []qubo.Sample) {
	opts = opts.WithDefaults()
	k := opts.Replicas
	st := saGroupPool.Get().(*saGroupScratch)
	defer saGroupPool.Put(st)
	if !st.begin(is, len(rs), k) {
		for j, r := range rs {
			out[j] = qubo.ParallelTempering(is, r, opts)
		}
		return
	}
	a := &st.args
	np := int(a.np)
	st.betas = opts.AppendBetas(st.betas[:0])
	betas := st.betas

	// Lane initialisation in the one-read order: replica i starts from
	// the spins of rs[j].Split(i), and the best starts at the last
	// replica and moves to any strictly lower one, in replica order.
	for j, r := range rs {
		lane := j * k
		best := lane + k - 1
		for i := 0; i < k; i++ {
			r.SplitInto(&st.src, uint64(i))
			for s := range st.start {
				st.start[s] = st.src.Spin()
			}
			st.slot[lane+i] = i
			st.energy[lane+i] = st.load(is, st.start, (lane+i)*np)
		}
		for b := lane; b < lane+k; b++ {
			if st.energy[b] < st.energy[best] {
				best = b
			}
		}
		a.bestE[j] = st.energy[best]
		copy(st.bestG[j*np:(j+1)*np], st.g[best*np:(best+1)*np])
		r.SplitStringInto(&st.src, "mc")
		a.rs0[j], a.rs1[j], a.rs2[j], a.rs3[j] = st.src.State()
	}

	for sweep := 0; sweep < opts.Sweeps; sweep++ {
		for i, beta := range betas {
			for j := range rs {
				b := j*k + st.slot[j*k+i]
				a.lanoff[j] = uint64(b * np)
				a.energy[j] = st.energy[b]
			}
			st.sweep(beta)
			for j := range rs {
				st.energy[int(a.lanoff[j])/np] = a.energy[j]
			}
		}
		if sweep%opts.SwapInterval == 0 {
			for j := range rs {
				st.exchange(j, k)
			}
		}
	}
	st.results(is.N, out[:len(rs)])
}

// exchange runs one replica-exchange pass for lane j on its stream:
// each adjacent pair of rungs swaps buffers with the one-read PT's
// acceptance rule, drawing a uniform only when the swap is uphill.
func (st *saGroupScratch) exchange(j, k int) {
	a := &st.args
	st.src.SetState(a.rs0[j], a.rs1[j], a.rs2[j], a.rs3[j])
	slot, energy := st.slot[j*k:(j+1)*k], st.energy[j*k:(j+1)*k]
	for i := 0; i+1 < k; i++ {
		d := (st.betas[i] - st.betas[i+1]) * (energy[slot[i]] - energy[slot[i+1]])
		if d >= 0 || metropolis.Accept(st.src.Float64(), -d) {
			slot[i], slot[i+1] = slot[i+1], slot[i]
		}
	}
	a.rs0[j], a.rs1[j], a.rs2[j], a.rs3[j] = st.src.State()
}
