package fastpath

import (
	"testing"

	"twolevel/internal/spec"
)

// TestShapeOfRouting pins which loop body serves each two-level
// variation, the BTB and a static scheme. A spec sent to the slower
// generic body is still bit-identical, so no equivalence suite would
// notice a lost route.
func TestShapeOfRouting(t *testing.T) {
	names := [...]string{loopStatic: "runStatic", loopGAg: "runGAg", loopCache: "runCache", loopGeneric: "runGeneric"}
	for _, c := range []struct {
		spec string
		want loopShape
	}{
		{"GAg(HR(1,,12-sr),1xPHT(2^12,A2))", loopGAg},
		{"GSg(HR(1,,8-sr),1xPHT(2^8,PB))", loopGAg},
		{"PAg(BHT(512,4,10-sr),1xPHT(2^10,A2))", loopCache},
		{"PSg(BHT(512,4,8-sr),1xPHT(2^8,PB))", loopCache},
		{"PAp(BHT(512,4,6-sr),512xPHT(2^6,A2))", loopCache},
		{"PAg(IBHT(inf,,10-sr),1xPHT(2^10,A2))", loopGeneric},
		{"PAs(BHT(512,4,8-sr),16xPHT(2^8,A2))", loopGeneric},
		{"GAs(HR(1,,8-sr),16xPHT(2^8,A2))", loopGeneric},
		{"GAp(HR(1,,6-sr),512xPHT(2^6,A2))", loopGeneric},
		{"SAg(SHT(64,,8-sr),1xPHT(2^8,A2))", loopGeneric},
		{"SAs(SHT(64,,8-sr),16xPHT(2^8,A2))", loopGeneric},
		{"SAp(SHT(64,,6-sr),512xPHT(2^6,A2))", loopGeneric},
		{"BTB(BHT(512,4,A2),)", loopGeneric},
		{"AlwaysTaken", loopStatic},
	} {
		sp := spec.MustParse(c.spec)
		td := &spec.TrainingData{}
		if sp.Scheme == spec.SchemeGSg || sp.Scheme == spec.SchemePSg {
			tr, err := spec.NewTrainer(sp)
			if err != nil {
				t.Fatal(err)
			}
			td.Static = tr
		}
		p, err := spec.Build(sp, td)
		if err != nil {
			t.Fatal(err)
		}
		k, ok := New(p, Config{})
		if !ok {
			t.Fatalf("%s: kernel does not support it", c.spec)
		}
		if k.loop != c.want {
			t.Errorf("%s: loop %s, want %s", c.spec, names[k.loop], names[c.want])
		}
	}
}
