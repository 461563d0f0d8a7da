package experiments

import (
	"fmt"
	"io"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/mimo"
	"repro/internal/modulation"
)

// BERResult is an extension experiment beyond the paper's figures: the
// uplink bit-error-rate curves that motivate its introduction — "to make
// full use of spatial multiplexing, much more sophisticated receiver
// designs with (near) optimal detectors are required". Linear detectors
// collapse on correlated channels; the exact-ML sphere decoder and the
// hybrid GS→RA solver hold the floor.
type BERResult struct {
	Users       int
	Scheme      modulation.Scheme
	Correlation float64
	Frames      int
	SNRs        []float64
	// BER[detector][snrIndex].
	BER map[string][]float64
	// Detectors in presentation order.
	Detectors []string
}

// RunBER sweeps SNR on a correlated Rayleigh uplink for the classical
// detectors and the hybrid.
func RunBER(cfg Config) (*BERResult, error) {
	cfg = cfg.withDefaults()
	const (
		users = 4
		rho   = 0.5
	)
	scheme := modulation.QAM16
	snrs := []float64{8, 12, 16, 20, 24}
	frames := cfg.Instances * 4

	res := &BERResult{
		Users: users, Scheme: scheme, Correlation: rho, Frames: frames,
		SNRs:      snrs,
		BER:       map[string][]float64{},
		Detectors: []string{"zf", "mmse", "kbest", "sd", "gs+ra"},
	}
	for _, d := range res.Detectors {
		res.BER[d] = make([]float64, len(snrs))
	}
	root := cfg.root().SplitString("ber")
	bitsPerFrame := users * scheme.BitsPerSymbol()
	for si, snr := range snrs {
		n0 := channel.NoiseVarianceForSNR(snr, users)
		insts, err := instance.Corpus(instance.Spec{
			Users: users, Scheme: scheme, Channel: channel.Rayleigh,
			Correlation: rho, NoiseVariance: n0,
		}, cfg.Seed^uint64(0xBE0+si), frames)
		if err != nil {
			return nil, err
		}
		for fi, in := range insts {
			r := root.Split(uint64(si*10_000 + fi))
			detect := func(name string) ([]complex128, error) {
				switch name {
				case "zf":
					return mimo.ZeroForcing{}.Detect(in.Problem)
				case "mmse":
					return mimo.MMSE{NoiseVariance: n0}.Detect(in.Problem)
				case "kbest":
					return mimo.KBest{K: 8}.Detect(in.Problem)
				case "sd":
					return mimo.SphereDecoder{}.Detect(in.Problem)
				case "gs+ra":
					out, err := (&core.Hybrid{NumReads: cfg.Reads / 2, Config: cfg.annealConfig()}).
						Solve(in.Reduction, r)
					if err != nil {
						return nil, err
					}
					return out.Symbols, nil
				}
				return nil, fmt.Errorf("unknown detector %q", name)
			}
			for _, d := range res.Detectors {
				syms, err := detect(d)
				if err != nil {
					return nil, err
				}
				res.BER[d][si] += float64(mimo.BitErrors(scheme, syms, in.Transmitted))
			}
		}
		for _, d := range res.Detectors {
			res.BER[d][si] /= float64(frames * bitsPerFrame)
		}
	}
	return res, nil
}

// WriteTable renders the BER curves.
func (r *BERResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# Extension: uplink BER vs SNR, %d-user %s, Kronecker ρ=%.1f (%d frames/point)\n",
		r.Users, r.Scheme, r.Correlation, r.Frames)
	header := []any{"snr_db"}
	for _, d := range r.Detectors {
		header = append(header, d)
	}
	writeRow(w, header...)
	for si, snr := range r.SNRs {
		row := []any{snr}
		for _, d := range r.Detectors {
			row = append(row, r.BER[d][si])
		}
		writeRow(w, row...)
	}
}
