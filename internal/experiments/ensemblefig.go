package experiments

import (
	"fmt"
	"io"

	"repro/internal/channel"
	"repro/internal/coding"
	"repro/internal/core"
	"repro/internal/mimo"
	"repro/internal/modulation"
	"repro/internal/rng"
)

// Ensemble figure shape: a coded 4-user 16-QAM uplink (the codeduplink
// loop) detected per channel use by the flexible-parallelism RA
// ensemble at growing arm counts, against the K=1/{0.45} anchor that is
// byte-identical to the single-RA hybrid. Success probability counts
// channel uses whose fused best reaches the exact-ML (sphere-decoder)
// energy; coded BER runs the fused LLRs through the rate-1/2 soft
// Viterbi decoder.
const (
	ensembleUsers = 4
	ensembleSNRdB = 11.0
	// ensembleInfoLen + 6 tail bits → 64 coded bits = 4 channel uses at
	// 16 coded bits per 4-user 16-QAM use.
	ensembleInfoLen = 26
)

// EnsembleVariant is one (K, s_p grid) cell of the sweep.
type EnsembleVariant struct {
	Name string
	K    int
	Grid []float64
}

// EnsembleVariants returns the sweep cells: the single-RA anchor, grid
// widening at K=1, then candidate widening at the full grid.
func EnsembleVariants() []EnsembleVariant {
	grid := core.DefaultSpGrid()
	return []EnsembleVariant{
		{"single", 1, []float64{core.RASp}},
		{"k1-grid3", 1, grid},
		{"k2-grid3", 2, grid},
		{"k4-grid3", 4, grid},
	}
}

// EnsembleRow is one variant's aggregate over every packet.
type EnsembleRow struct {
	Variant      string    `json:"variant"`
	K            int       `json:"k"`
	GridSize     int       `json:"grid_size"`
	Arms         int       `json:"arms"`
	Successes    int       `json:"successes"`
	Uses         int       `json:"uses"`
	SuccessRate  jsonFloat `json:"success_rate"`
	CodedBitErrs int       `json:"coded_bit_errs"`
	CodedBits    int       `json:"coded_bits"`
	CodedBER     jsonFloat `json:"coded_ber"`
	SoftInfoErrs int       `json:"soft_info_errs"`
	HardInfoErrs int       `json:"hard_info_errs"`
	InfoBits     int       `json:"info_bits"`
	SoftInfoBER  jsonFloat `json:"soft_info_ber"`
	HardInfoBER  jsonFloat `json:"hard_info_ber"`
	AnnealMicros jsonFloat `json:"anneal_us"`
}

// EnsembleResult is the ensemble-vs-single-RA study.
type EnsembleResult struct {
	Users       int           `json:"users"`
	Scheme      string        `json:"scheme"`
	SNRdB       float64       `json:"snr_db"`
	Packets     int           `json:"packets"`
	InfoLen     int           `json:"info_len"`
	UsesPerPkt  int           `json:"uses_per_packet"`
	ReadsPerArm int           `json:"reads_per_arm"`
	Rows        []EnsembleRow `json:"rows"`
}

// ensembleUse is one precomputed channel use, shared by every variant so
// the sweep is paired: same info bits, channel draws, and ML witness.
type ensembleUse struct {
	seg    []int8 // transmitted coded bits, user-major binary labeling
	red    *mimo.Reduction
	ground float64 // exact-ML Ising energy (sphere decoder witness)
}

// RunEnsemble runs the flexible-parallelism study: every variant detects
// the identical coded packets, per channel use, through core.Ensemble.
// A positive k or non-empty grid appends one custom variant to the
// default sweep (the -ensemble-k / -ensemble-sp-grid flags), with the
// unset half defaulting to K=1 / the default grid.
func RunEnsemble(cfg Config, k int, grid []float64) (*EnsembleResult, error) {
	cfg = cfg.withDefaults()
	scheme := modulation.QAM16
	code := coding.NewConvCode133171()
	n0 := channel.NoiseVarianceForSNR(ensembleSNRdB, ensembleUsers)
	bitsPerUse := ensembleUsers * scheme.BitsPerSymbol()
	packets := cfg.Instances
	readsPerArm := cfg.Reads / 30
	if readsPerArm < 4 {
		readsPerArm = 4
	}
	variants := EnsembleVariants()
	if k > 0 || len(grid) > 0 {
		if k <= 0 {
			k = 1
		}
		if len(grid) == 0 {
			grid = core.DefaultSpGrid()
		}
		variants = append(variants, EnsembleVariant{
			Name: fmt.Sprintf("k%d-grid%d", k, len(grid)), K: k, Grid: grid,
		})
	}

	res := &EnsembleResult{
		Users: ensembleUsers, Scheme: scheme.String(), SNRdB: ensembleSNRdB,
		Packets: packets, InfoLen: ensembleInfoLen,
		UsesPerPkt:  (code.CodedLength(ensembleInfoLen) + bitsPerUse - 1) / bitsPerUse,
		ReadsPerArm: readsPerArm,
	}

	// Synthesize every packet's channel uses once; variants pair on them.
	root := cfg.root().SplitString("ensemble")
	type packet struct {
		info  []int8
		coded []int8
		uses  []ensembleUse
	}
	pkts := make([]packet, packets)
	for pi := range pkts {
		pr := root.Split(uint64(pi))
		info := randomEnsembleBits(pr.SplitString("info"), ensembleInfoLen)
		coded, err := code.Encode(info)
		if err != nil {
			return nil, err
		}
		padded := append([]int8(nil), coded...)
		for len(padded)%bitsPerUse != 0 {
			padded = append(padded, 0)
		}
		pkts[pi] = packet{info: info, coded: coded}
		for use := 0; use*bitsPerUse < len(padded); use++ {
			seg := padded[use*bitsPerUse : (use+1)*bitsPerUse]
			ur := pr.Split(uint64(use))
			u, err := synthesizeEnsembleUse(seg, scheme, n0, ur)
			if err != nil {
				return nil, err
			}
			pkts[pi].uses = append(pkts[pi].uses, *u)
		}
	}

	for _, v := range variants {
		if err := core.ValidateSpGrid(v.Grid); err != nil {
			return nil, err
		}
		det := &core.Ensemble{
			K: v.K, SpGrid: v.Grid, NumReads: readsPerArm,
			Config: cfg.annealConfig(),
		}
		row := EnsembleRow{
			Variant: v.Name, K: v.K, GridSize: len(v.Grid), Arms: v.K * len(v.Grid),
		}
		anneal := 0.0
		for pi := range pkts {
			pkt := &pkts[pi]
			var llrs []float64
			var hardBits []int8
			for ui := range pkt.uses {
				u := &pkt.uses[ui]
				dr := root.SplitString("detect/" + v.Name).Split(uint64(pi*1024 + ui))
				out, err := det.Solve(u.red, dr)
				if err != nil {
					return nil, err
				}
				row.Uses++
				if out.Best.Energy <= u.ground+1e-6 {
					row.Successes++
				}
				anneal += out.AnnealTime
				spinLLRs := out.FusedLLRs
				if spinLLRs == nil {
					// Every arm faulted (not reachable without a fault
					// model, but keep the decode total): hard ±1 LLRs
					// from the fallback answer.
					spinLLRs = make([]float64, len(out.Best.Spins))
					for i, sp := range out.Best.Spins {
						spinLLRs[i] = float64(sp)
					}
				}
				for uu := 0; uu < ensembleUsers; uu++ {
					hard := scheme.DemodulateBinary(out.Symbols[uu])
					for b := 0; b < scheme.BitsPerSymbol(); b++ {
						idx := mimo.BitLLR{User: uu, Bit: b}.SpinIndex(u.red)
						llrs = append(llrs, spinLLRs[idx])
						hardBits = append(hardBits, hard[b])
					}
				}
			}
			row.CodedBitErrs += coding.BitErrors(hardBits[:len(pkt.coded)], pkt.coded)
			row.CodedBits += len(pkt.coded)
			softDec, err := code.DecodeSoft(llrs[:len(pkt.coded)])
			if err != nil {
				return nil, err
			}
			hardDec, err := code.DecodeHard(hardBits[:len(pkt.coded)])
			if err != nil {
				return nil, err
			}
			row.SoftInfoErrs += coding.BitErrors(pkt.info, softDec)
			row.HardInfoErrs += coding.BitErrors(pkt.info, hardDec)
			row.InfoBits += len(pkt.info)
		}
		row.SuccessRate = jsonFloat(float64(row.Successes) / float64(row.Uses))
		row.CodedBER = jsonFloat(float64(row.CodedBitErrs) / float64(row.CodedBits))
		row.SoftInfoBER = jsonFloat(float64(row.SoftInfoErrs) / float64(row.InfoBits))
		row.HardInfoBER = jsonFloat(float64(row.HardInfoErrs) / float64(row.InfoBits))
		row.AnnealMicros = jsonFloat(anneal)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// synthesizeEnsembleUse transmits one channel use's coded bits and
// reduces it, with the sphere decoder witnessing the exact-ML energy.
func synthesizeEnsembleUse(bits []int8, scheme modulation.Scheme, n0 float64, r *rng.Source) (*ensembleUse, error) {
	x := make([]complex128, ensembleUsers)
	for u := 0; u < ensembleUsers; u++ {
		sym, err := scheme.ModulateBinary(bits[u*scheme.BitsPerSymbol() : (u+1)*scheme.BitsPerSymbol()])
		if err != nil {
			return nil, err
		}
		x[u] = sym
	}
	h := channel.Draw(channel.Rayleigh, r.SplitString("channel"), ensembleUsers, ensembleUsers)
	y := channel.Transmit(r.SplitString("noise"), h, x, n0)
	p := &mimo.Problem{H: h, Y: y, Scheme: scheme}
	red, err := mimo.Reduce(p)
	if err != nil {
		return nil, err
	}
	ml, err := mimo.SphereDecoder{}.Detect(p)
	if err != nil {
		return nil, err
	}
	spins, err := red.EncodeSymbols(ml)
	if err != nil {
		return nil, err
	}
	return &ensembleUse{
		seg: append([]int8(nil), bits...), red: red,
		ground: red.Ising.Energy(spins),
	}, nil
}

func randomEnsembleBits(r *rng.Source, n int) []int8 {
	out := make([]int8, n)
	for i := range out {
		if r.Bool() {
			out[i] = 1
		}
	}
	return out
}

// WriteTable renders the study.
func (r *EnsembleResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# Ensemble RA coded uplink: %d users × %s @ %g dB, %d packets × %d uses, %d reads/arm (K candidates × s_p grid)\n",
		r.Users, r.Scheme, r.SNRdB, r.Packets, r.UsesPerPkt, r.ReadsPerArm)
	writeRow(w, "variant", "k", "grid", "arms", "success", "coded_ber", "soft_ber", "hard_ber", "anneal_us")
	for _, row := range r.Rows {
		writeRow(w, row.Variant, row.K, row.GridSize, row.Arms,
			float64(row.SuccessRate), float64(row.CodedBER),
			float64(row.SoftInfoBER), float64(row.HardInfoBER), float64(row.AnnealMicros))
	}
}
