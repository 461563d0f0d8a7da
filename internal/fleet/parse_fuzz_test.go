package fleet

import "testing"

// FuzzParsePolicy: the scheduling-policy parser must never panic, must
// only accept known policies, and every accepted policy must round-trip
// through its String spelling.
func FuzzParsePolicy(f *testing.F) {
	for _, s := range []string{"least-loaded", "round-robin", "edf", "", "EDF", "Policy(1)", " edf", "least-loaded\x00"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePolicy(s)
		if err != nil {
			return
		}
		if !p.valid() {
			t.Fatalf("ParsePolicy(%q) accepted invalid policy %d", s, int(p))
		}
		back, err := ParsePolicy(p.String())
		if err != nil || back != p {
			t.Fatalf("ParsePolicy(%q) = %v, but its String %q parses to %v, %v", s, p, p.String(), back, err)
		}
	})
}

// FuzzParseRoutePolicy: the same contract for the route-policy parser,
// whose empty spelling is the RouteAny default.
func FuzzParseRoutePolicy(f *testing.F) {
	for _, s := range []string{"any", "hybrid", "", "Hybrid", "RoutePolicy(1)", "hybrid ", "\xff"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseRoutePolicy(s)
		if err != nil {
			return
		}
		if !p.valid() {
			t.Fatalf("ParseRoutePolicy(%q) accepted invalid route policy %d", s, int(p))
		}
		back, err := ParseRoutePolicy(p.String())
		if err != nil || back != p {
			t.Fatalf("ParseRoutePolicy(%q) = %v, but its String %q parses to %v, %v", s, p, p.String(), back, err)
		}
	})
}
