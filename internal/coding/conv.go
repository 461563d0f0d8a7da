// Package coding implements a convolutional channel code with hard- and
// soft-decision Viterbi decoding — the link-layer substrate around the
// paper's detector: the ARQ turn-around that motivates its latency
// budget exists because frames are coded, decoded, and acknowledged, and
// a soft-output detector (core.Ensemble's FusedLLRs, computed by
// mimo.FuseLLRs) only pays off if a soft-input decoder consumes the LLRs.
package coding

import (
	"fmt"
	"math"
	"math/bits"
)

// ConvCode is a rate-1/len(Polys) binary convolutional code with
// constraint length K: each input bit shifts into a K-bit register and
// every generator polynomial emits the parity of its masked taps.
type ConvCode struct {
	K     int      // constraint length (register bits)
	Polys []uint32 // generator polynomials, LSB = newest bit
}

// NewConvCode75 returns the classic K=3, rate-1/2 code with octal
// generators (7, 5) — the standard example code with free distance 5.
func NewConvCode75() *ConvCode { return &ConvCode{K: 3, Polys: []uint32{0o7, 0o5}} }

// NewConvCode133171 returns the K=7, rate-1/2 "Voyager" code with octal
// generators (133, 171), free distance 10 — the workhorse of practical
// wireless standards.
func NewConvCode133171() *ConvCode { return &ConvCode{K: 7, Polys: []uint32{0o133, 0o171}} }

// Validate checks the code's shape.
func (c *ConvCode) Validate() error {
	if c.K < 2 || c.K > 16 {
		return fmt.Errorf("coding: constraint length %d out of [2, 16]", c.K)
	}
	if len(c.Polys) == 0 {
		return fmt.Errorf("coding: no generator polynomials")
	}
	for _, p := range c.Polys {
		if p == 0 || p >= 1<<uint(c.K) {
			return fmt.Errorf("coding: polynomial %#o out of range for K=%d", p, c.K)
		}
	}
	return nil
}

// states returns the trellis state count 2^(K−1).
func (c *ConvCode) states() int { return 1 << uint(c.K-1) }

// CodedLength returns the codeword length for n information bits,
// including the K−1 tail bits that flush the register.
func (c *ConvCode) CodedLength(n int) int { return (n + c.K - 1) * len(c.Polys) }

// outputs computes the coded bits emitted when `in` enters state `st`
// (state = previous K−1 input bits, LSB = most recent).
func (c *ConvCode) outputs(st int, in int) []int8 {
	reg := uint32(st)<<1 | uint32(in)
	out := make([]int8, len(c.Polys))
	for i, p := range c.Polys {
		out[i] = int8(bits.OnesCount32(reg&p) & 1)
	}
	return out
}

// next returns the trellis successor state.
func (c *ConvCode) next(st int, in int) int {
	return (st<<1 | in) & (c.states() - 1)
}

// Encode convolves the information bits and appends K−1 zero tail bits,
// returning CodedLength(len(info)) coded bits.
func (c *ConvCode) Encode(info []int8) ([]int8, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	out := make([]int8, 0, c.CodedLength(len(info)))
	st := 0
	emit := func(b int) {
		out = append(out, c.outputs(st, b)...)
		st = c.next(st, b)
	}
	for _, b := range info {
		if b != 0 && b != 1 {
			return nil, fmt.Errorf("coding: information bits must be 0/1")
		}
		emit(int(b))
	}
	for t := 0; t < c.K-1; t++ {
		emit(0)
	}
	return out, nil
}

// DecodeHard runs hard-decision Viterbi over received coded bits and
// returns the information bits (tail removed). The received length must
// be a multiple of the rate denominator and cover at least the tail.
func (c *ConvCode) DecodeHard(coded []int8) ([]int8, error) {
	llrs := make([]float64, len(coded))
	for i, b := range coded {
		if b != 0 {
			llrs[i] = 1
		} else {
			llrs[i] = -1
		}
	}
	return c.DecodeSoft(llrs)
}

// DecodeSoft runs soft-decision Viterbi: llrs[i] > 0 means coded bit i is
// more likely 1, with |llrs[i]| the confidence. Metrics maximize
// Σ llr_i·(2b_i−1), the correlation decoder.
func (c *ConvCode) DecodeSoft(llrs []float64) ([]int8, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	r := len(c.Polys)
	if len(llrs)%r != 0 {
		return nil, fmt.Errorf("coding: %d coded values not a multiple of rate denominator %d", len(llrs), r)
	}
	steps := len(llrs) / r
	if steps < c.K-1 {
		return nil, fmt.Errorf("coding: codeword shorter than the tail")
	}
	nStates := c.states()
	neg := math.Inf(-1)
	metric := make([]float64, nStates)
	for s := 1; s < nStates; s++ {
		metric[s] = neg // the encoder starts in state 0
	}
	// back[t][s] packs the predecessor state and input bit.
	back := make([][]int32, steps)
	next := make([]float64, nStates)
	for t := 0; t < steps; t++ {
		back[t] = make([]int32, nStates)
		for s := 0; s < nStates; s++ {
			next[s] = neg
		}
		seg := llrs[t*r : (t+1)*r]
		for s := 0; s < nStates; s++ {
			if metric[s] == neg {
				continue
			}
			for in := 0; in <= 1; in++ {
				outBits := c.outputs(s, in)
				branch := 0.0
				for i, b := range outBits {
					if b == 1 {
						branch += seg[i]
					} else {
						branch -= seg[i]
					}
				}
				ns := c.next(s, in)
				if m := metric[s] + branch; m > next[ns] {
					next[ns] = m
					back[t][ns] = int32(s<<1 | in)
				}
			}
		}
		copy(metric, next)
	}
	// The tail drives the encoder back to state 0.
	if metric[0] == neg {
		return nil, fmt.Errorf("coding: no surviving path to the zero state")
	}
	decoded := make([]int8, steps)
	st := 0
	for t := steps - 1; t >= 0; t-- {
		packed := back[t][st]
		decoded[t] = int8(packed & 1)
		st = int(packed >> 1)
	}
	return decoded[:steps-(c.K-1)], nil
}

// BitErrors counts positions where a and b differ (equal lengths).
func BitErrors(a, b []int8) int {
	if len(a) != len(b) {
		panic("coding: BitErrors length mismatch")
	}
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}
