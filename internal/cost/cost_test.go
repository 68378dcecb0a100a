package cost

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"

	"twolevel/internal/flat"
	"twolevel/internal/predictor"
	"twolevel/internal/prog"
	"twolevel/internal/sim"
	"twolevel/internal/spec"
	"twolevel/internal/trace"
)

func mustEstimate(t *testing.T, s string) Breakdown {
	t.Helper()
	b, err := EstimateSpec(spec.MustParse(s))
	if err != nil {
		t.Fatalf("EstimateSpec(%q): %v", s, err)
	}
	return b
}

func TestGAgCostGrowsExponentiallyWithK(t *testing.T) {
	// Equation 4: GAg cost ~ 2^k terms dominate.
	c6 := mustEstimate(t, "GAg(HR(1,,6-sr),1xPHT(2^6,A2))").Total()
	c12 := mustEstimate(t, "GAg(HR(1,,12-sr),1xPHT(2^12,A2))").Total()
	c18 := mustEstimate(t, "GAg(HR(1,,18-sr),1xPHT(2^18,A2))").Total()
	if !(c6 < c12 && c12 < c18) {
		t.Fatalf("GAg cost not increasing: %v %v %v", c6, c12, c18)
	}
	// Doubling k six times should multiply cost by roughly 2^6.
	ratio := c18 / c12
	if ratio < 32 || ratio > 128 {
		t.Fatalf("GAg k=12->18 cost ratio %.1f, want ~64 (exponential)", ratio)
	}
}

func TestPAgCostLinearInBHTSize(t *testing.T) {
	// Equation 5: linear in h for fixed k.
	c256 := mustEstimate(t, "PAg(BHT(256,4,12-sr),1xPHT(2^12,A2))")
	c512 := mustEstimate(t, "PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))")
	// The BHT part should roughly double; the shared PHT is unchanged.
	if r := c512.BHT() / c256.BHT(); r < 1.8 || r > 2.2 {
		t.Fatalf("PAg BHT cost ratio %.2f, want ~2", r)
	}
	if c512.PHT() != c256.PHT() {
		t.Fatalf("PAg PHT cost should not depend on BHT size: %v vs %v", c512.PHT(), c256.PHT())
	}
}

func TestPApPHTDominates(t *testing.T) {
	// Equation 6: PAp pays for h pattern tables.
	pap := mustEstimate(t, "PAp(BHT(512,4,6-sr),512xPHT(2^6,A2))")
	pag := mustEstimate(t, "PAg(BHT(512,4,6-sr),1xPHT(2^6,A2))")
	if pap.BHT() != pag.BHT() {
		t.Fatalf("same BHT should cost the same: %v vs %v", pap.BHT(), pag.BHT())
	}
	if r := pap.PHT() / pag.PHT(); math.Abs(r-512) > 1 {
		t.Fatalf("PAp PHT cost should be 512x PAg's, got %.1f", r)
	}
}

func TestFigure8CostOrdering(t *testing.T) {
	// §5.1.3: at ~97% accuracy — GAg(18), PAg(12), PAp(6) — PAg is the
	// cheapest; GAg and PAp are more expensive.
	gag := mustEstimate(t, "GAg(HR(1,,18-sr),1xPHT(2^18,A2))").Total()
	pag := mustEstimate(t, "PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))").Total()
	pap := mustEstimate(t, "PAp(BHT(512,4,6-sr),512xPHT(2^6,A2))").Total()
	if !(pag < gag && pag < pap) {
		t.Fatalf("PAg should be cheapest at equal accuracy: GAg=%.0f PAg=%.0f PAp=%.0f", gag, pag, pap)
	}
}

func TestGlobalCheaperThanPerAddressAtSameK(t *testing.T) {
	gag := mustEstimate(t, "GAg(HR(1,,12-sr),1xPHT(2^12,A2))").Total()
	pag := mustEstimate(t, "PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))").Total()
	pap := mustEstimate(t, "PAp(BHT(512,4,12-sr),512xPHT(2^12,A2))").Total()
	if !(gag < pag && pag < pap) {
		t.Fatalf("expected GAg < PAg < PAp at equal k: %v %v %v", gag, pag, pap)
	}
}

func TestLastTimeCheaperThanA2(t *testing.T) {
	// s=1 vs s=2 halves pattern storage.
	lt := mustEstimate(t, "PAg(BHT(512,4,12-sr),1xPHT(2^12,LT))")
	a2 := mustEstimate(t, "PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))")
	if lt.PHTStorage*2 != a2.PHTStorage {
		t.Fatalf("LT pattern storage should be half of A2's: %v vs %v", lt.PHTStorage, a2.PHTStorage)
	}
}

func TestEquation3HandComputed(t *testing.T) {
	// Hand-evaluate Equation 3 for a small configuration:
	// a=30, h=512 (i=9), j=2 (4-way), k=12, s=2, p=1, all constants 1.
	ones := Constants{1, 1, 1, 1, 1, 1, 1}
	p := Params{AddressBits: 30, BHTEntries: 512, AssocLog2: 2, HistoryBits: 12, PatternBits: 2, PHTSets: 1}
	b, err := Estimate(p, ones)
	if err != nil {
		t.Fatal(err)
	}
	tag := 30.0 - 9 + 2 // a-i+j = 23
	wantBHTStorage := 512 * (tag + 12 + 1 + 2)
	wantBHTAccess := 512.0 + 4*tag + 4*12
	wantBHTUpdate := 512.0*12 + 4*2
	wantPHTStorage := 4096.0 * 2
	wantPHTAccess := 4096.0
	wantPHTUpdate := 2.0 * 8
	if b.BHTStorage != wantBHTStorage || b.BHTAccess != wantBHTAccess || b.BHTUpdate != wantBHTUpdate {
		t.Fatalf("BHT terms: got %+v", b)
	}
	if b.PHTStorage != wantPHTStorage || b.PHTAccess != wantPHTAccess || b.PHTUpdate != wantPHTUpdate {
		t.Fatalf("PHT terms: got %+v", b)
	}
	if b.Total() != wantBHTStorage+wantBHTAccess+wantBHTUpdate+wantPHTStorage+wantPHTAccess+wantPHTUpdate {
		t.Fatal("Total is not the sum of the parts")
	}
}

func TestEquation4GAgSimplification(t *testing.T) {
	// GAg: (k+1)C_s + kC_sh + 2^k(sC_s + C_d).
	p := Params{AddressBits: 30, BHTEntries: 1, HistoryBits: 10, PatternBits: 2, PHTSets: 1, Global: true}
	b, err := Estimate(p, Defaults)
	if err != nil {
		t.Fatal(err)
	}
	want := (10.0+1)*Defaults.Storage + 10*Defaults.Shifter
	if b.BHT() != want {
		t.Fatalf("GAg BHT cost %v, want %v", b.BHT(), want)
	}
	wantPHT := 1024*(2*Defaults.Storage+Defaults.Decoder) + 2*8*Defaults.Automaton
	if b.PHT() != wantPHT {
		t.Fatalf("GAg PHT cost %v, want %v", b.PHT(), wantPHT)
	}
}

func TestValidation(t *testing.T) {
	bad := []Params{
		{AddressBits: 30, BHTEntries: 100, HistoryBits: 6, PatternBits: 2, PHTSets: 1},
		{AddressBits: 30, BHTEntries: 512, HistoryBits: 0, PatternBits: 2, PHTSets: 1},
		{AddressBits: 30, BHTEntries: 512, HistoryBits: 6, PatternBits: 0, PHTSets: 1},
		{AddressBits: 2, BHTEntries: 512, AssocLog2: 0, HistoryBits: 6, PatternBits: 2, PHTSets: 1},
	}
	for i, p := range bad {
		if _, err := Estimate(p, Defaults); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
}

func TestFromSpecRejections(t *testing.T) {
	for _, s := range []string{
		"BTB(BHT(512,4,A2),)",
		"AlwaysTaken",
		"PAg(IBHT(inf,,12-sr),1xPHT(2^12,A2))",
	} {
		if _, err := FromSpec(spec.MustParse(s)); err == nil {
			t.Errorf("FromSpec(%q) accepted", s)
		}
	}
}

func TestStaticTrainingCostMatchesAdaptive(t *testing.T) {
	// §4.2: "The cost to implement Static Training is not less expensive
	// than ... the Two-Level Adaptive Scheme" — same structure, PB
	// entries (s=1) vs A2 (s=2), so PSg is slightly cheaper in storage
	// but the same order.
	psg := mustEstimate(t, "PSg(BHT(512,4,12-sr),1xPHT(2^12,PB))").Total()
	pag := mustEstimate(t, "PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))").Total()
	if psg > pag {
		t.Fatalf("PSg (%v) should not cost more than PAg (%v)", psg, pag)
	}
	if psg < pag/2 {
		t.Fatalf("PSg (%v) should be the same order as PAg (%v)", psg, pag)
	}
}

func TestCostMonotoneInEveryParameter(t *testing.T) {
	base := Params{AddressBits: 30, BHTEntries: 256, AssocLog2: 2, HistoryBits: 8, PatternBits: 2, PHTSets: 1}
	total := func(p Params) float64 {
		b, err := Estimate(p, Defaults)
		if err != nil {
			t.Fatal(err)
		}
		return b.Total()
	}
	ref := total(base)
	bigger := []Params{base, base, base, base}
	bigger[0].BHTEntries = 512
	bigger[1].HistoryBits = 10
	bigger[2].PatternBits = 3
	bigger[3].PHTSets = 4
	for i, p := range bigger {
		if total(p) <= ref {
			t.Errorf("growing parameter %d did not grow cost", i)
		}
	}
}

func TestEstimateNeverNegativeProperty(t *testing.T) {
	if err := quick.Check(func(h4 uint8, j2 uint8, k5 uint8, s2 uint8, pap bool) bool {
		h := 1 << (h4%6 + 4) // 16..512
		j := int(j2 % 3)     // 1..4-way
		if 1<<j > h {
			j = 0
		}
		k := int(k5%14) + 1
		s := int(s2%2) + 1
		p := Params{AddressBits: 30, BHTEntries: h, AssocLog2: j, HistoryBits: k, PatternBits: s, PHTSets: 1}
		if pap {
			p.PHTSets = h
		}
		b, err := Estimate(p, Defaults)
		if err != nil {
			return false
		}
		return b.BHTStorage >= 0 && b.BHTAccess >= 0 && b.BHTUpdate >= 0 &&
			b.PHTStorage >= 0 && b.PHTAccess >= 0 && b.PHTUpdate >= 0
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// modelSpecs are the Table 3 and ext-taxonomy configurations, marked
// with whether the §3.4 model covers them. The configurations outside
// the model are listed too, so one the model later accepts joins the
// checks below.
var modelSpecs = []struct {
	spec    string
	inModel bool
}{
	// Table 3.
	{"GAg(HR(1,,12-sr),1xPHT(2^12,A2))", true},
	{"PAg(BHT(256,1,12-sr),1xPHT(2^12,A2))", true},
	{"PAg(BHT(256,4,12-sr),1xPHT(2^12,A2))", true},
	{"PAg(BHT(512,1,12-sr),1xPHT(2^12,A2))", true},
	{"PAg(BHT(512,4,12-sr),1xPHT(2^12,A1))", true},
	{"PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))", true},
	{"PAg(BHT(512,4,12-sr),1xPHT(2^12,A3))", true},
	{"PAg(BHT(512,4,12-sr),1xPHT(2^12,A4))", true},
	{"PAg(BHT(512,4,12-sr),1xPHT(2^12,LT))", true},
	{"PAg(IBHT(inf,,12-sr),1xPHT(2^12,A2))", false},
	{"PAp(BHT(512,4,12-sr),512xPHT(2^12,A2))", true},
	{"GSg(HR(1,,12-sr),1xPHT(2^12,PB))", true},
	{"PSg(BHT(512,4,12-sr),1xPHT(2^12,PB))", true},
	{"BTB(BHT(512,4,A2),)", false},
	{"BTB(BHT(512,4,LT),)", false},
	// ext-taxonomy, k = 6.
	{"GAg(HR(1,,6-sr),1xPHT(2^6,A2))", true},
	{"GAs(HR(1,,6-sr),16xPHT(2^6,A2))", false},
	{"GAp(HR(1,,6-sr),512xPHT(2^6,A2))", false},
	{"SAg(SHT(64,,6-sr),1xPHT(2^6,A2))", false},
	{"SAs(SHT(64,,6-sr),16xPHT(2^6,A2))", false},
	{"SAp(SHT(64,,6-sr),512xPHT(2^6,A2))", false},
	{"PAg(BHT(512,4,6-sr),1xPHT(2^6,A2))", true},
	{"PAs(BHT(512,4,6-sr),16xPHT(2^6,A2))", false},
	{"PAp(BHT(512,4,6-sr),512xPHT(2^6,A2))", true},
}

// buildTwoLevel builds sp's predictor, with an untrained static trainer
// for the Static Training structures.
func buildTwoLevel(t *testing.T, sp spec.Spec) *predictor.TwoLevel {
	t.Helper()
	var td *spec.TrainingData
	if sp.NeedsTraining() {
		tr, err := spec.NewTrainer(sp)
		if err != nil {
			t.Fatal(err)
		}
		td = &spec.TrainingData{Static: tr}
	}
	p, err := spec.Build(sp, td)
	if err != nil {
		t.Fatal(err)
	}
	return p.(*predictor.TwoLevel)
}

// TestFromSpecMatchesSimulatedStructure pins the §3.4 model to what is
// simulated: for every modelSpecs configuration the model covers,
// FromSpec's h, j, k, table count and s equal the dimensions of the
// flat.State the built predictor allocates — its history registers, BHT
// associativity, HistMask width, pattern tables (each 2^k entries) and
// log2 of its automaton's states.
func TestFromSpecMatchesSimulatedStructure(t *testing.T) {
	for _, c := range modelSpecs {
		t.Run(c.spec, func(t *testing.T) {
			sp := spec.MustParse(c.spec)
			want, err := FromSpec(sp)
			if !c.inModel {
				if err == nil {
					t.Fatalf("FromSpec accepted a configuration outside the model: %+v", want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			st := buildTwoLevel(t, sp).State()
			got := Params{
				AddressBits: DefaultAddressBits,
				BHTEntries:  1,
				HistoryBits: bits.Len32(st.HistMask),
				PatternBits: bits.Len(uint(len(st.Delta)/2 - 1)),
				PHTSets:     1,
				Global:      st.HistoryAxis == flat.Global,
			}
			if st.BHT == flat.CacheBHT {
				got.BHTEntries = len(st.Hists)
				got.AssocLog2 = bits.TrailingZeros(uint(st.Assoc))
			}
			table := st.GStates
			if st.PatternAxis == flat.PerAddress {
				got.PHTSets = len(st.PHTStates)
				table = st.PHTStates[st.Allocate(0x40)]
			}
			if got != want {
				t.Fatalf("simulated structure %+v, model %+v", got, want)
			}
			if len(table) != 1<<want.HistoryBits {
				t.Fatalf("pattern table has %d entries, model 2^%d", len(table), want.HistoryBits)
			}
		})
	}
}

// TestStorageBitsMatchState counts each modelled configuration's
// storage bits from the flat.State it simulates, in the paper's terms,
// and pins Estimate's storage terms to the count. A BHT entry holds a
// tag of a − log2(sets) address bits, k history bits, one prediction
// bit and an LRU rank of j = bits.Len(assoc−1) bits; the global
// register of GAg/GSg is one entry with neither tag nor rank. A pattern
// table holds 2^k entries of s bits, s the bits of an automaton state.
// Each configuration then replays a gcc capture with context switches,
// after which every set's ranks must still be a permutation of
// 0..assoc−1, so every rank fits the j bits counted.
func TestStorageBitsMatchState(t *testing.T) {
	snap := gccCapture(t, 100_000)
	for _, c := range modelSpecs {
		if !c.inModel {
			continue
		}
		t.Run(c.spec, func(t *testing.T) {
			sp := spec.MustParse(c.spec)
			params, err := FromSpec(sp)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Estimate(params, Defaults)
			if err != nil {
				t.Fatal(err)
			}
			p := buildTwoLevel(t, sp)
			st := p.State()
			k := bits.OnesCount32(st.HistMask)
			entries, tag, j := 1, 0, 0
			if st.BHT == flat.CacheBHT {
				entries = len(st.Valid)
				tag = DefaultAddressBits - bits.TrailingZeros(uint(st.SetMask+1))
				j = bits.Len(uint(st.Assoc - 1))
			}
			tables := 1
			if st.PatternAxis == flat.PerAddress {
				tables = len(st.PHTStates)
			}
			bht := entries * (tag + k + 1 + j)
			pht := tables * int(st.HistMask+1) * bits.Len(uint(len(st.Delta)/2-1))
			if float64(bht) != want.BHTStorage/Defaults.Storage || float64(pht) != want.PHTStorage/Defaults.Storage {
				t.Fatalf("state holds %d BHT and %d pattern bits; Estimate stores %v and %v",
					bht, pht, want.BHTStorage/Defaults.Storage, want.PHTStorage/Defaults.Storage)
			}

			if _, err := sim.Run(p, snap.Reader(), sim.Options{ContextSwitches: true}); err != nil {
				t.Fatal(err)
			}
			for base := 0; base < len(st.Ranks); base += st.Assoc {
				seen := make([]bool, st.Assoc)
				for _, r := range st.Ranks[base : base+st.Assoc] {
					if int(r) >= st.Assoc || seen[r] {
						t.Fatalf("set %d ranks %v are not a permutation of 0..%d",
							base/st.Assoc, st.Ranks[base:base+st.Assoc], st.Assoc-1)
					}
					seen[r] = true
				}
			}
		})
	}
}

// gccCapture packs the first events of gcc's testing run, the benchmark
// with the most static branches and so the most BHT replacement.
func gccCapture(t *testing.T, events int) trace.Snapshot {
	t.Helper()
	bench, err := prog.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	src, err := bench.NewSource(bench.Testing)
	if err != nil {
		t.Fatal(err)
	}
	var p trace.Packed
	for p.Len() < events {
		e, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		p.Append(e)
	}
	return p.View(p.Len())
}
