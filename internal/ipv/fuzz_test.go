package ipv

import (
	"strings"
	"testing"
)

// FuzzParseVector checks the vector parser — the boundary every external
// input crosses (command-line -ipv flags, checkpoint payloads) — never
// panics on arbitrary text, and that anything it accepts passes Validate
// and survives a String round trip.
func FuzzParseVector(f *testing.F) {
	f.Add("[ 0 0 1 0 3 0 1 2 1 0 5 1 0 0 1 11 13 ]")
	f.Add("0 0 0")
	f.Add("")
	f.Add("[,,]")
	f.Add("9999999999999999999999")
	f.Add("-1 0 0")
	f.Add("0,1,\t2 ,3,1")
	f.Add(LRU(16).String()) // checkpoint payloads store String() forms
	f.Add(MidClimb(16).String())
	f.Add("1 1 1") // entries must stay below k
	f.Add("0 0 1e2")
	f.Add(strings.Repeat("0 ", 1024))
	f.Fuzz(func(t *testing.T, s string) {
		v, err := Parse(s)
		if err != nil {
			return
		}
		if err := v.Validate(); err != nil {
			t.Fatalf("Parse accepted an invalid vector %v: %v", v, err)
		}
		back, err := Parse(v.String())
		if err != nil || !back.Equal(v) {
			t.Fatalf("round trip failed for %v: %v", v, err)
		}
	})
}

// FuzzAnalyze checks the analyzer and degeneracy test against arbitrary
// valid vectors built from fuzzed bytes.
func FuzzAnalyze(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{3, 2, 1, 0, 3})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 3 || len(raw) > 65 {
			return
		}
		k := len(raw) - 1
		v := make(Vector, len(raw))
		for i, b := range raw {
			v[i] = int(b) % k
		}
		a := Analyze(v)
		if a.Promotions+a.Demotions+a.Identity != k {
			t.Fatalf("entry classification does not sum to k: %+v", a)
		}
		if a.MeanTarget < 0 || a.MeanTarget > float64(k-1) {
			t.Fatalf("mean target out of range: %v", a.MeanTarget)
		}
		_ = v.ReachesMRU()
		_ = TransitionGraph(v)
	})
}
