package coding

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func randomBits(r *rng.Source, n int) []int8 {
	out := make([]int8, n)
	for i := range out {
		if r.Bool() {
			out[i] = 1
		}
	}
	return out
}

func TestValidate(t *testing.T) {
	if err := NewConvCode75().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := NewConvCode133171().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*ConvCode{
		{K: 1, Polys: []uint32{1}},
		{K: 3, Polys: nil},
		{K: 3, Polys: []uint32{0}},
		{K: 3, Polys: []uint32{0o17}}, // exceeds K bits
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Fatalf("bad code %d accepted", i)
		}
	}
}

func TestEncodeKnownVector(t *testing.T) {
	// K=3 (7,5): input 1 0 1 1 from the zero state is the textbook
	// example; outputs (g7, g5) per step, with two tail zeros.
	c := NewConvCode75()
	coded, err := c.Encode([]int8{1, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// The textbook trellis for input 1011: 11 10 00 01, then the tail
	// 01 11 returning to state 00.
	want := []int8{
		1, 1, // in=1, reg=001
		1, 0, // in=0, reg=010
		0, 0, // in=1, reg=101
		0, 1, // in=1, reg=011
		0, 1, // tail 0, reg=110
		1, 1, // tail 0, reg=100
	}
	if len(coded) != c.CodedLength(4) {
		t.Fatalf("coded length %d, want %d", len(coded), c.CodedLength(4))
	}
	for i := range want {
		if coded[i] != want[i] {
			t.Fatalf("coded[%d] = %d, want %d (full %v)", i, coded[i], want[i], coded)
		}
	}
}

func TestEncodeRejectsNonBits(t *testing.T) {
	if _, err := NewConvCode75().Encode([]int8{0, 2}); err == nil {
		t.Fatal("non-bit accepted")
	}
}

// TestDecodeCleanRoundTrip: property test — decoding an uncorrupted
// codeword recovers the information bits for both codes.
func TestDecodeCleanRoundTrip(t *testing.T) {
	r := rng.New(1)
	for _, c := range []*ConvCode{NewConvCode75(), NewConvCode133171()} {
		f := func(seedByte uint8, lenByte uint8) bool {
			n := 1 + int(lenByte)%64
			info := randomBits(r.Split(uint64(seedByte)*257+uint64(lenByte)), n)
			coded, err := c.Encode(info)
			if err != nil {
				return false
			}
			decoded, err := c.DecodeHard(coded)
			if err != nil {
				return false
			}
			return BitErrors(info, decoded) == 0
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("K=%d: %v", c.K, err)
		}
	}
}

// TestDecodeCorrectsErrors: the (7,5) code has free distance 5 — any two
// channel bit errors far apart are corrected.
func TestDecodeCorrectsErrors(t *testing.T) {
	c := NewConvCode75()
	r := rng.New(3)
	info := randomBits(r, 40)
	coded, err := c.Encode(info)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := append([]int8(nil), coded...)
	corrupted[6] ^= 1
	corrupted[40] ^= 1
	corrupted[70] ^= 1
	decoded, err := c.DecodeHard(corrupted)
	if err != nil {
		t.Fatal(err)
	}
	if e := BitErrors(info, decoded); e != 0 {
		t.Fatalf("decoder left %d errors after 3 dispersed channel errors", e)
	}
}

// TestSoftBeatsHard: with Gaussian LLRs, soft-decision decoding makes
// strictly fewer information-bit errors than hard slicing + hard Viterbi
// over a noisy batch.
func TestSoftBeatsHard(t *testing.T) {
	c := NewConvCode133171()
	r := rng.New(5)
	const frames = 60
	const n = 48
	sigma := 1.0 // Eb/N0 around the waterfall for rate 1/2 BPSK
	hardErrs, softErrs := 0, 0
	for f := 0; f < frames; f++ {
		info := randomBits(r, n)
		coded, err := c.Encode(info)
		if err != nil {
			t.Fatal(err)
		}
		llrs := make([]float64, len(coded))
		hard := make([]int8, len(coded))
		for i, b := range coded {
			tx := float64(2*b - 1)
			rx := tx + sigma*r.NormFloat64()
			llrs[i] = 2 * rx / (sigma * sigma)
			if rx > 0 {
				hard[i] = 1
			}
		}
		hd, err := c.DecodeHard(hard)
		if err != nil {
			t.Fatal(err)
		}
		sd, err := c.DecodeSoft(llrs)
		if err != nil {
			t.Fatal(err)
		}
		hardErrs += BitErrors(info, hd)
		softErrs += BitErrors(info, sd)
	}
	if softErrs >= hardErrs {
		t.Fatalf("soft decoding (%d errors) not better than hard (%d)", softErrs, hardErrs)
	}
}

func TestDecodeValidation(t *testing.T) {
	c := NewConvCode75()
	if _, err := c.DecodeHard(make([]int8, 3)); err == nil {
		t.Fatal("non-multiple length accepted")
	}
	if _, err := c.DecodeHard(make([]int8, 2)); err == nil {
		t.Fatal("shorter-than-tail codeword accepted")
	}
}

func TestCodedLengthAndRate(t *testing.T) {
	c := NewConvCode75()
	if c.CodedLength(10) != 24 {
		t.Fatalf("coded length %d", c.CodedLength(10))
	}
}
