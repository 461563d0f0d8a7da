// Codeduplink: the full link-layer loop around the hybrid detector. An
// information packet is convolutionally encoded (K=7, rate 1/2), mapped
// onto 16-QAM symbols across successive channel uses of a 4-user MIMO
// uplink, and detected per channel use by the GS→RA hybrid, run as a
// single-arm core.Ensemble. The annealer's sample ensemble yields per-bit
// LLRs (mimo.FuseLLRs over the arm's reads) which feed a soft-decision
// Viterbi decoder — against a hard-decision baseline from the same
// detector.
//
//	go run ./examples/codeduplink
package main

import (
	"fmt"
	"log"

	"repro/internal/channel"
	"repro/internal/coding"
	"repro/internal/core"
	"repro/internal/mimo"
	"repro/internal/modulation"
	"repro/internal/rng"
)

const (
	users   = 4
	snrDB   = 11.0
	packets = 6
	infoLen = 118 // + 6 tail bits → 248 coded bits = 62 symbols… padded below
)

func main() {
	scheme := modulation.QAM16
	code := coding.NewConvCode133171()
	n0 := channel.NoiseVarianceForSNR(snrDB, users)
	bitsPerUse := users * scheme.BitsPerSymbol()
	r := rng.New(2027)

	fmt.Printf("coded uplink: %d users × %s, %.0f dB SNR, K=%d rate-1/2 code\n",
		users, scheme, snrDB, code.K)
	fmt.Printf("%d info bits/packet → %d coded bits → %d channel uses\n\n",
		infoLen, code.CodedLength(infoLen), (code.CodedLength(infoLen)+bitsPerUse-1)/bitsPerUse)

	var hardInfoErrs, softInfoErrs, rawCodedErrs, totalInfo, totalCoded int
	for pkt := 0; pkt < packets; pkt++ {
		pr := r.Split(uint64(pkt))
		info := randomBits(pr.SplitString("info"), infoLen)
		coded, err := code.Encode(info)
		if err != nil {
			log.Fatal(err)
		}
		// Pad the coded stream to a whole number of channel uses.
		padded := append([]int8(nil), coded...)
		for len(padded)%bitsPerUse != 0 {
			padded = append(padded, 0)
		}

		hardBits := make([]int8, 0, len(padded))
		llrs := make([]float64, 0, len(padded))
		for use := 0; use*bitsPerUse < len(padded); use++ {
			seg := padded[use*bitsPerUse : (use+1)*bitsPerUse]
			ur := pr.Split(uint64(use))
			red, out, spinLLRs, err := detectUse(seg, scheme, n0, ur)
			if err != nil {
				log.Fatal(err)
			}
			// Reorder per-spin values into bitstream order (user-major,
			// binary labeling).
			for u := 0; u < users; u++ {
				hard := scheme.DemodulateBinary(out.Symbols[u])
				for b := 0; b < scheme.BitsPerSymbol(); b++ {
					idx := mimo.BitLLR{User: u, Bit: b}.SpinIndex(red)
					llrs = append(llrs, spinLLRs[idx])
					hardBits = append(hardBits, hard[b])
				}
			}
		}
		rawCodedErrs += coding.BitErrors(hardBits[:len(coded)], coded)
		totalCoded += len(coded)

		hardDec, err := code.DecodeHard(hardBits[:len(coded)])
		if err != nil {
			log.Fatal(err)
		}
		softDec, err := code.DecodeSoft(llrs[:len(coded)])
		if err != nil {
			log.Fatal(err)
		}
		hardInfoErrs += coding.BitErrors(info, hardDec)
		softInfoErrs += coding.BitErrors(info, softDec)
		totalInfo += infoLen
	}

	fmt.Printf("raw detected coded-bit BER:         %.4f (%d/%d)\n",
		float64(rawCodedErrs)/float64(totalCoded), rawCodedErrs, totalCoded)
	fmt.Printf("info BER, hard-decision decoding:   %.4f (%d/%d)\n",
		float64(hardInfoErrs)/float64(totalInfo), hardInfoErrs, totalInfo)
	fmt.Printf("info BER, soft-decision (LLR) path: %.4f (%d/%d)\n",
		float64(softInfoErrs)/float64(totalInfo), softInfoErrs, totalInfo)
	fmt.Println("\n(the sample-ensemble LLRs carry detector confidence through to the")
	fmt.Println(" decoder — the soft path should match or beat hard slicing.)")
}

// detectUse transmits one channel use's coded bits and detects them with
// the hybrid, returning the reduction, the outcome, and per-spin LLRs.
func detectUse(bits []int8, scheme modulation.Scheme, n0 float64, r *rng.Source) (*mimo.Reduction, *core.Outcome, []float64, error) {
	x := make([]complex128, users)
	for u := 0; u < users; u++ {
		sym, err := scheme.ModulateBinary(bits[u*scheme.BitsPerSymbol() : (u+1)*scheme.BitsPerSymbol()])
		if err != nil {
			return nil, nil, nil, err
		}
		x[u] = sym
	}
	h := channel.Draw(channel.Rayleigh, r.SplitString("channel"), users, users)
	y := channel.Transmit(r.SplitString("noise"), h, x, n0)
	p := &mimo.Problem{H: h, Y: y, Scheme: scheme}
	red, err := mimo.Reduce(p)
	if err != nil {
		return nil, nil, nil, err
	}
	out, err := (&core.Ensemble{NumReads: 120}).Solve(red, r.SplitString("hybrid"))
	if err != nil {
		return nil, nil, nil, err
	}
	return red, &out.Outcome, out.FusedLLRs, nil
}

func randomBits(r *rng.Source, n int) []int8 {
	out := make([]int8, n)
	for i := range out {
		if r.Bool() {
			out[i] = 1
		}
	}
	return out
}
