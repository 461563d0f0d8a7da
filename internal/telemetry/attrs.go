package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unsafe"
)

// attrKind is the type of an attribute's value.
type attrKind uint8

const (
	kindInt attrKind = iota
	kindFloat
	kindString
	kindBool
	kindFloats
)

// Attr is one typed trace attribute: a key and an int, float, string,
// bool or float-slice value. Build it with Int, Float, String, Bool or
// Floats. Building one never allocates, and reflect.DeepEqual compares
// attributes by value.
type Attr struct {
	Key string
	// s is the string (kindString), or the float slice's memory viewed
	// as bytes (kindFloats).
	s string
	// num is the int64 bits (kindInt), the float64 bits (kindFloat),
	// 0 or 1 (kindBool), or 1 for a non-nil slice (kindFloats).
	num  uint64
	kind attrKind
}

// Int returns an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, kind: kindInt, num: uint64(int64(v))} }

// Float returns a float attribute.
func Float(key string, v float64) Attr {
	return Attr{Key: key, kind: kindFloat, num: math.Float64bits(v)}
}

// String returns a string attribute.
func String(key, v string) Attr { return Attr{Key: key, kind: kindString, s: v} }

// Bool returns a boolean attribute.
func Bool(key string, v bool) Attr {
	a := Attr{Key: key, kind: kindBool}
	if v {
		a.num = 1
	}
	return a
}

// Floats returns a float-slice attribute. It keeps v, not a copy, so
// the caller must not change v afterwards; a nil v encodes as null.
func Floats(key string, v []float64) Attr {
	a := Attr{Key: key, kind: kindFloats}
	if v != nil {
		a.num = 1
		a.s = unsafe.String((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*8)
	}
	return a
}

func (a Attr) int() int64     { return int64(a.num) }
func (a Attr) float() float64 { return math.Float64frombits(a.num) }

func (a Attr) floats() []float64 {
	switch {
	case a.num == 0:
		return nil
	case len(a.s) == 0:
		return []float64{}
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.StringData(a.s))), len(a.s)/8)
}

// Value returns the value as the Go type encoding/json writes the same
// bytes for: int64, float64, string, bool or []float64.
func (a Attr) Value() any {
	switch a.kind {
	case kindInt:
		return a.int()
	case kindFloat:
		return a.float()
	case kindString:
		return a.s
	case kindBool:
		return a.num != 0
	default:
		return a.floats()
	}
}

// Attrs is a record's attribute list. The tracer keeps it in key order
// with unique keys (see Tracer.Span); the encoding is the JSON object
// encoding/json writes for the same attributes as a map[string]any.
type Attrs []Attr

// Lookup returns the attribute with the given key.
func (as Attrs) Lookup(key string) (Attr, bool) {
	for _, a := range as {
		if a.Key == key {
			return a, true
		}
	}
	return Attr{}, false
}

// Num returns an int or float attribute's value as a float64.
func (as Attrs) Num(key string) (float64, bool) {
	a, ok := as.Lookup(key)
	switch {
	case ok && a.kind == kindInt:
		return float64(a.int()), true
	case ok && a.kind == kindFloat:
		return a.float(), true
	}
	return 0, false
}

// Int returns an int attribute's value, or a float attribute's value
// truncated: a trace read back from JSONL carries every number as a
// float.
func (as Attrs) Int(key string) (int, bool) {
	a, ok := as.Lookup(key)
	switch {
	case ok && a.kind == kindInt:
		return int(a.int()), true
	case ok && a.kind == kindFloat:
		return int(a.float()), true
	}
	return 0, false
}

// Str returns a string attribute's value.
func (as Attrs) Str(key string) (string, bool) {
	if a, ok := as.Lookup(key); ok && a.kind == kindString {
		return a.s, true
	}
	return "", false
}

// Bool reports whether the key holds a true boolean attribute.
func (as Attrs) Bool(key string) bool {
	a, ok := as.Lookup(key)
	return ok && a.kind == kindBool && a.num != 0
}

func compareKeys(a, b Attr) int { return strings.Compare(a.Key, b.Key) }

// sortedUnique reports whether the keys are strictly increasing.
func (as Attrs) sortedUnique() bool {
	for i := 1; i < len(as); i++ {
		if as[i-1].Key >= as[i].Key {
			return false
		}
	}
	return true
}

// normalize puts as into key order in place and drops all but the last
// attribute of each key, as successive map assignments would.
func (as Attrs) normalize() Attrs {
	if as.sortedUnique() {
		return as
	}
	slices.SortStableFunc(as, compareKeys)
	out := as[:0]
	for i, a := range as {
		if i+1 < len(as) && as[i+1].Key == a.Key {
			continue
		}
		out = append(out, a)
	}
	return out
}

// sorted returns as if its keys are in order and unique, else a
// normalized copy.
func (as Attrs) sorted() Attrs {
	if as.sortedUnique() {
		return as
	}
	return slices.Clone(as).normalize()
}

// appendObject appends the attributes, which must be in key order with
// unique keys, as a JSON object.
func appendObject(b []byte, as Attrs) ([]byte, error) {
	b = append(b, '{')
	for i, a := range as {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, a.Key)
		b = append(b, ':')
		var err error
		if b, err = appendValue(b, a); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

func appendValue(b []byte, a Attr) ([]byte, error) {
	switch a.kind {
	case kindInt:
		return strconv.AppendInt(b, a.int(), 10), nil
	case kindFloat:
		return appendFloat(b, a.float())
	case kindString:
		return appendString(b, a.s), nil
	case kindBool:
		return strconv.AppendBool(b, a.num != 0), nil
	}
	fs := a.floats()
	if fs == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, f := range fs {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendFloat(b, f); err != nil {
			return b, err
		}
	}
	return append(b, ']'), nil
}

// appendFloat appends f as encoding/json does: the shortest 'f' form,
// the 'e' form below 1e-6 and from 1e21 with a one-digit negative
// exponent unpadded (1e-07 becomes 1e-7), and its error on NaN and ±Inf.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		_, err := json.Marshal(f)
		return b, err
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// plain marks the bytes encoding/json copies into a string unescaped:
// printable ASCII other than `"\<>&`.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, rune(c))
	}
	return t
}()

// appendString appends s as a JSON string. A string of plain bytes is
// copied between quotes; anything else (control bytes, non-ASCII,
// invalid UTF-8, `"\<>&`) goes through encoding/json, so the bytes
// always match its HTML-escaped output.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plain[s[i]] {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendRecord appends r as one JSONL line: the bytes encoding/json's
// Encoder writes for the record with its attributes as a map. Records
// carrying a manifest are not handled here.
func appendRecord(b []byte, r *Record) ([]byte, error) {
	var err error
	b = append(b, `{"type":`...)
	b = appendString(b, r.Type)
	if r.Name != "" {
		b = append(b, `,"name":`...)
		b = appendString(b, r.Name)
	}
	b = append(b, `,"t0_us":`...)
	if b, err = appendFloat(b, r.T0); err != nil {
		return b, err
	}
	if r.T1 != 0 {
		b = append(b, `,"t1_us":`...)
		if b, err = appendFloat(b, r.T1); err != nil {
			return b, err
		}
	}
	if len(r.Attrs) > 0 {
		b = append(b, `,"attrs":`...)
		if b, err = appendObject(b, r.Attrs); err != nil {
			return b, err
		}
	}
	return append(b, "}\n"...), nil
}

// MarshalJSON implements json.Marshaler with the tracer's encoding.
func (as Attrs) MarshalJSON() ([]byte, error) {
	if as == nil {
		return []byte("null"), nil
	}
	return appendObject(nil, as.sorted())
}

// UnmarshalJSON implements json.Unmarshaler. A JSON number becomes a
// Float, an array of numbers (or null) a Floats; any other value (a
// nested object, an array holding a non-number) is an error.
func (as *Attrs) UnmarshalJSON(data []byte) error {
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	if m == nil {
		*as = nil
		return nil
	}
	out := make(Attrs, 0, len(m))
	for k, v := range m {
		switch v := v.(type) {
		case float64:
			out = append(out, Float(k, v))
		case string:
			out = append(out, String(k, v))
		case bool:
			out = append(out, Bool(k, v))
		case nil:
			out = append(out, Floats(k, nil))
		case []any:
			fs := make([]float64, len(v))
			for i, e := range v {
				f, ok := e.(float64)
				if !ok {
					return fmt.Errorf("telemetry: attribute %q: array element %d is not a number", k, i)
				}
				fs[i] = f
			}
			out = append(out, Floats(k, fs))
		default:
			return fmt.Errorf("telemetry: attribute %q: unsupported value of type %T", k, v)
		}
	}
	slices.SortFunc(out, compareKeys)
	*as = out
	return nil
}
