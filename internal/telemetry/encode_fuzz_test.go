package telemetry_test

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"testing"
	"unicode/utf8"

	"repro/internal/telemetry"
	"repro/internal/telemetry/telemetrytest"
)

// fuzzAttrs builds an attribute list from ops: each byte picks a kind
// (low three bits) and a key (key itself when the high bit is set,
// else key plus one of four suffixes, so repeated keys are common).
func fuzzAttrs(ops []byte, key, str string, i int64, f float64) telemetry.Attrs {
	var as telemetry.Attrs
	for k, op := range ops {
		kk := key
		if op&0x80 == 0 {
			kk += string(rune('a' + k%4))
		}
		switch op & 7 {
		case 0:
			as = append(as, telemetry.Int(kk, int(i)+k))
		case 1:
			as = append(as, telemetry.Float(kk, f))
		case 2:
			as = append(as, telemetry.Float(kk, float64(i)))
		case 3:
			as = append(as, telemetry.String(kk, str))
		case 4:
			as = append(as, telemetry.Bool(kk, op&8 != 0))
		case 5:
			as = append(as, telemetry.Floats(kk, []float64{f, -f, float64(k)}))
		case 6:
			as = append(as, telemetry.Floats(kk, nil))
		default:
			as = append(as, telemetry.Floats(kk, []float64{}))
		}
	}
	return as
}

// FuzzWriteJSONL is the differential test of the tracer's JSONL writer:
// on random typed records its bytes must equal encoding/json's for the
// same record with its attributes as a map[string]any (HTML escaping,
// float format and a repeated key's last value included), both must
// fail on NaN and ±Inf, and a line decoded back into a Record must
// encode to what encoding/json makes of the same line.
func FuzzWriteJSONL(f *testing.F) {
	f.Add("fleet/frame", 12.5, 40.25, "seq", "s0", int64(3), 0.5, []byte{0, 1, 2, 3, 4, 5})
	f.Add("<>&", 1.0, 0.0, "k<>&", `a"b\c<d>e&f`, int64(0), 1.0, []byte{3, 0x83, 3})
	f.Add("line sep ", 2.0, 0.0, " ", "  ", int64(-1), -1.5, []byte{3, 0x83})
	f.Add("ctl\x00\x01\x1f\x7f", 3.0, 0.0, "\t\n\r", "\x00\x1b\x7f", int64(7), 2.0, []byte{3, 0x83, 0})
	f.Add("bad\xff\xfeutf8", 4.0, 0.0, "\xc3\x28", "\xed\xa0\x80\xff", int64(8), 3.0, []byte{3, 0x83})
	f.Add("negzero", math.Copysign(0, -1), math.Copysign(0, -1), "z", "", int64(0), math.Copysign(0, -1), []byte{1, 5})
	f.Add("subnormal", 5e-324, 1e-7, "tiny", "x", int64(1), 5e-324, []byte{1, 5, 1})
	f.Add("exp", 1e21, 1e20, "big", "x", int64(2), 1e-7, []byte{1, 5})
	f.Add("exp2", 999999999999999999999.0, 1e-6, "e", "y", int64(3), 1.2345678901234567e-300, []byte{1, 5})
	f.Add("ints", 0.0, 0.0, "n", "z", int64(math.MaxInt64), 9007199254740993.0, []byte{0, 2, 0x80, 0x82, 1})
	f.Add("minint", 0.0, 0.0, "n", "z", int64(math.MinInt64), -9007199254740992.0, []byte{0, 2})
	f.Add("dup", 7.0, 0.0, "k", "v", int64(5), 6.0, []byte{0x80, 0x81, 0x83, 0x84, 0x80, 0x85, 0x86})
	f.Add("nan", math.NaN(), 0.0, "k", "v", int64(0), 0.0, []byte{0})
	f.Add("inf", 1.0, math.Inf(1), "k", "v", int64(0), 0.0, []byte{0})
	f.Add("attrnan", 1.0, 0.0, "k", "v", int64(0), math.NaN(), []byte{1})
	f.Add("attrinf", 1.0, 0.0, "k", "v", int64(0), math.Inf(-1), []byte{5})
	f.Add("", 0.0, 0.0, "", "", int64(0), 0.0, []byte{})

	f.Fuzz(func(t *testing.T, name string, t0, t1 float64, key, str string, i int64, fl float64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		attrs := fuzzAttrs(ops, key, str, i, fl)
		rec := telemetry.Record{Type: "event", Name: name, T0: t0, Attrs: attrs}
		if t1 != 0 {
			rec.Type, rec.T1 = "span", t1
		}
		want, wantErr := telemetrytest.Marshal(rec)

		tr := telemetry.NewTracer()
		emitted := slices.Clone(attrs)
		if rec.Type == "span" {
			tr.Span(name, t0, t1, emitted)
		} else {
			tr.Event(name, t0, emitted)
		}
		var got bytes.Buffer
		gotErr := tr.WriteJSONL(&got)
		if (wantErr != nil) != (gotErr != nil) {
			t.Fatalf("encoding/json error %v, writer error %v", wantErr, gotErr)
		}
		if wantErr != nil {
			return
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("writer and encoding/json differ:\n got %s\nwant %s", got.Bytes(), want)
		}
		if rec.Attrs != nil {
			m, err := json.Marshal(rec.Attrs)
			mm, _ := json.Marshal(telemetrytest.MapAttrs(rec.Attrs))
			if err != nil || !bytes.Equal(m, mm) {
				t.Fatalf("Attrs.MarshalJSON %s (%v), map %s", m, err, mm)
			}
		}

		var back telemetry.Record
		if err := json.Unmarshal(got.Bytes(), &back); err != nil {
			t.Fatalf("decoding %s: %v", got.Bytes(), err)
		}
		again := telemetry.NewTracer()
		if r := back; r.Type == "span" {
			again.Span(r.Name, r.T0, r.T1, r.Attrs)
		} else {
			again.Event(r.Name, r.T0, r.Attrs)
		}
		var re bytes.Buffer
		if err := again.WriteJSONL(&re); err != nil {
			t.Fatal(err)
		}
		reWant, err := telemetrytest.Reencode(got.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re.Bytes(), reWant) {
			t.Fatalf("read-back record re-encodes as\n%s\nencoding/json gives\n%s", re.Bytes(), reWant)
		}
		// Integers up to 2^53 survive float64, and valid UTF-8 is not
		// rewritten: then the round trip is the identity.
		exact := i > -1<<53 && i < 1<<53-64 && utf8.ValidString(name) && utf8.ValidString(key) && utf8.ValidString(str)
		if exact && !bytes.Equal(re.Bytes(), got.Bytes()) {
			t.Fatalf("round trip changed the line:\n%s\n%s", got.Bytes(), re.Bytes())
		}
	})
}
