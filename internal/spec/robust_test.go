package spec

import (
	"testing"

	"twolevel/internal/rng"
)

// Robustness: the parser must never panic, whatever the input — it is
// fed directly from command-line flags and grid requests.

// FuzzParse feeds arbitrary strings to the parser. Anything it accepts
// must round-trip through its canonical form, and Validate must not
// panic on whatever Parse hands back, accepted or not.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		// Table 3's configurations and the taxonomy extensions.
		"GAg(HR(1,,12-sr),1xPHT(2^12,A2))",
		"PAg(BHT(256,1,12-sr),1xPHT(2^12,A2))",
		"PAg(BHT(512,4,12-sr),1xPHT(2^12,LT))",
		"PAg(IBHT(inf,,12-sr),1xPHT(2^12,A2))",
		"PAp(BHT(512,4,12-sr),512xPHT(2^12,A2))",
		"PAp(IBHT(inf,,6-sr),infxPHT(2^6,A2))",
		"GSg(HR(1,,12-sr),1xPHT(2^12,PB))",
		"PSg(BHT(512,4,12-sr),1xPHT(2^12,PB))",
		"BTB(BHT(512,4,A2),)",
		"BTB(BHT(512,4,LT),)",
		"SAs(SHT(64,,6-sr),16xPHT(2^6,A2))",
		"GAp(HR(1,,8-sr),512xPHT(2^8,A2))",
		"PAg(BHT(512,4,12-sr),1xPHT(2^12,A2),c)",
		"Profiling", "BTFN", "AlwaysTaken",
		"", "PAg(", "GAg(HR(1,,99-sr),1xPHT(2^99,A2))",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := Parse(s)
		_ = sp.Validate()
		if err != nil {
			return
		}
		again, err := Parse(sp.String())
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", sp.String(), s, err)
		}
		if again.String() != sp.String() {
			t.Fatalf("canonical form not a fixed point: %q -> %q", sp.String(), again.String())
		}
	})
}

func TestParseNeverPanicsOnMutatedValidSpecs(t *testing.T) {
	// Mutations of valid specs exercise deeper parser paths than pure
	// noise does.
	r := rng.New(42)
	valid := []string{
		"PAg(BHT(512,4,12-sr),1xPHT(2^12,A2),c)",
		"GAp(HR(1,,8-sr),512xPHT(2^8,A2))",
		"BTB(BHT(512,4,LT),)",
		"PSg(BHT(512,4,12-sr),1xPHT(2^12,PB))",
	}
	for i := 0; i < 20000; i++ {
		s := []byte(valid[r.Intn(len(valid))])
		// Flip, delete or insert a couple of characters.
		for m := 0; m < 1+r.Intn(3); m++ {
			if len(s) == 0 {
				break
			}
			pos := r.Intn(len(s))
			switch r.Intn(3) {
			case 0:
				s[pos] = byte(32 + r.Intn(95))
			case 1:
				s = append(s[:pos], s[pos+1:]...)
			default:
				s = append(s[:pos], append([]byte{byte(32 + r.Intn(95))}, s[pos:]...)...)
			}
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Parse(%q) panicked: %v", s, p)
				}
			}()
			_, _ = Parse(string(s))
		}()
	}
}
