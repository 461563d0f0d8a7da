package validate

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzLoadGolden feeds arbitrary bytes to the golden-baseline parser
// behind LoadGolden: it must never panic, every accepted baseline
// carries the current schema, and an accepted baseline re-encodes to a
// fixed point (encode → parse → encode gives the same bytes).
func FuzzLoadGolden(f *testing.F) {
	good, err := json.Marshal(&Golden{
		Schema: GoldenSchema, Figure: "3", Seed: 2020, Instances: 3, Reads: 150,
		Metrics: []Metric{{Name: "x/y", CI: ci(1, 0.9, 1.1)}},
		Result:  json.RawMessage(`{"points":[1,2]}`),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{"schema":1}`))
	f.Add([]byte(`{"schema":2,"figure":"3"}`))
	f.Add([]byte(`{"schema":1,"metrics":[{"name":"a","ci":{"value":1e308,"lo":-0,"n":-1}}],"result":null}`))
	f.Add([]byte(`{"schema":1,"result":[}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := parseGolden("fuzz", data)
		if err != nil {
			return
		}
		if g.Schema != GoldenSchema {
			t.Fatalf("accepted schema %d", g.Schema)
		}
		enc, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("accepted baseline does not re-encode: %v", err)
		}
		g2, err := parseGolden("fuzz", enc)
		if err != nil {
			t.Fatalf("re-encoded baseline rejected: %v\n%s", err, enc)
		}
		enc2, err := json.Marshal(g2)
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding is not a fixed point:\n%s\n%s", enc, enc2)
		}
	})
}
