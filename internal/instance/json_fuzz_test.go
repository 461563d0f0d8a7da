package instance

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/channel"
	"repro/internal/modulation"
)

// fuzzMaxSearchBits bounds an input's detection search space (users ×
// bits per symbol) so the sphere decoder UnmarshalJSON runs stays fast.
// The bound lives here, not in the parser: the loader accepts any size.
const fuzzMaxSearchBits = 12

// FuzzInstanceUnmarshalJSON feeds arbitrary bytes to Instance's JSON
// loader: it must never panic, and an accepted instance must round-trip
// through MarshalJSON to the same H, Y and scheme.
func FuzzInstanceUnmarshalJSON(f *testing.F) {
	for _, spec := range []Spec{
		{Users: 2, Scheme: modulation.BPSK, Seed: 1},
		{Users: 3, Scheme: modulation.QPSK, Channel: channel.Rayleigh, NoiseVariance: 0.1, Seed: 2},
		{Users: 2, Scheme: modulation.QAM16, Seed: 3},
	} {
		in, err := Synthesize(spec)
		if err != nil {
			f.Fatal(err)
		}
		buf, err := json.Marshal(in)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte(`{"scheme":"qpsk","h":[[[1,0]]],"y":[[1,1]]}`))
	f.Add([]byte(`{"scheme":"qpsk","h":[[]],"y":[[0,0]]}`))
	f.Add([]byte(`{"scheme":"bpsk","h":[[[1,0],[0,1]],[[1,0]]],"y":[[0,0],[0,0]]}`))
	f.Add([]byte(`{"scheme":"64qam","h":[[[1e308,0]]],"y":[[-1e308,0]],"noise_variance":1}`))
	f.Add([]byte(`{"scheme":"8psk"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var w wireInstance
		if json.Unmarshal(data, &w) == nil && len(w.H) > 0 {
			scheme, err := modulation.ParseScheme(w.Scheme)
			if err == nil && (len(w.H) > fuzzMaxSearchBits || len(w.H[0])*scheme.BitsPerSymbol() > fuzzMaxSearchBits) {
				return
			}
		}
		var in Instance
		if err := in.UnmarshalJSON(data); err != nil {
			return
		}
		enc, err := in.MarshalJSON()
		if err != nil {
			t.Fatalf("accepted instance does not re-encode: %v", err)
		}
		var back Instance
		if err := back.UnmarshalJSON(enc); err != nil {
			t.Fatalf("re-encoded instance rejected: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(back.Problem.H, in.Problem.H) || !reflect.DeepEqual(back.Problem.Y, in.Problem.Y) ||
			back.Problem.Scheme != in.Problem.Scheme {
			t.Fatalf("round trip changed the problem:\n%s\n%s", data, enc)
		}
	})
}
