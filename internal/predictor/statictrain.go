package predictor

import (
	"fmt"
	"io"

	"twolevel/internal/flat"
	"twolevel/internal/trace"
)

// StaticTrainer performs the profiling pass of Lee & A. Smith's Static
// Training (§4.2): it runs the training data set through the two-level
// structure, counting for every history pattern how often the next branch
// was taken, and freezes the majority decision into a preset pattern
// table.
//
// For GSg the pattern is global history; for PSg it is per-address
// history tracked with an ideal table ("Lee and A. Smith's Static
// Training scheme is similar in structure to the Per-address Two-Level
// Adaptive scheme with an IBHT"). The registers are flat history
// registers stepped with flat.Shift, so they start all ones and smear
// their first outcome as the predictors' do.
type StaticTrainer struct {
	perAddress bool
	k          int
	mask       uint32
	ghr        uint32       // GSg's global register
	dir        flat.PCIndex // PSg: branch PC → index into hists
	hists      []uint32     // PSg's per-branch registers
	counts     [][2]uint64  // per pattern: not-taken, taken
}

// NewStaticTrainer returns a trainer collecting k-bit pattern statistics.
// perAddress selects PSg-style per-branch history; false is GSg-style
// global history.
func NewStaticTrainer(k int, perAddress bool) *StaticTrainer {
	mask := uint32(1)<<k - 1
	return &StaticTrainer{
		perAddress: perAddress,
		k:          k,
		mask:       mask,
		ghr:        mask | flat.FreshBit,
		counts:     make([][2]uint64, 1<<k),
	}
}

// Observe records one resolved conditional branch from the training run.
func (t *StaticTrainer) Observe(b trace.Branch) {
	r := &t.ghr
	if t.perAddress {
		i, added := t.dir.Add(b.PC)
		if added {
			t.hists = append(t.hists, t.mask|flat.FreshBit)
		}
		r = &t.hists[i]
	}
	o := bit(b.Taken)
	t.counts[*r&t.mask][o]++
	*r = flat.Shift(*r, o, t.mask)
}

// ObserveTrace drains a trace source, observing every conditional branch.
func (t *StaticTrainer) ObserveTrace(src trace.Source) error {
	return observeConds(src, t.Observe)
}

// observeConds drains src, passing every conditional branch to observe.
func observeConds(src trace.Source, observe func(trace.Branch)) error {
	for {
		e, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if !e.Trap && e.Branch.Class == trace.Cond {
			observe(e.Branch)
		}
	}
}

// Observations returns the number of branches observed so far.
func (t *StaticTrainer) Observations() uint64 {
	var n uint64
	for _, c := range t.counts {
		n += c[0] + c[1]
	}
	return n
}

// Preset freezes the collected statistics into a preset pattern table:
// each pattern's majority direction. Ties, and patterns never observed
// during training, predict taken, consistent with the initialisation
// bias of §4.2.
func (t *StaticTrainer) Preset() []bool {
	preset := make([]bool, len(t.counts))
	for i, c := range t.counts {
		preset[i] = c[1] >= c[0]
	}
	return preset
}

// NewGSg builds a Global Static Training predictor (GSg): the GAg
// structure with the pattern table preset from the trainer.
func NewGSg(t *StaticTrainer) (*TwoLevel, error) {
	if t.perAddress {
		return nil, fmt.Errorf("predictor: GSg requires a global-history trainer")
	}
	return NewTwoLevel(TwoLevelConfig{
		Variation:   GAg,
		HistoryBits: t.k,
		Preset:      t.Preset(),
	})
}

// NewPSg builds a Per-address Static Training predictor (PSg): the PAg
// structure (with the given branch history table) and a preset global
// pattern table.
func NewPSg(t *StaticTrainer, entries, assoc int, ideal bool) (*TwoLevel, error) {
	if !t.perAddress {
		return nil, fmt.Errorf("predictor: PSg requires a per-address trainer")
	}
	return NewTwoLevel(TwoLevelConfig{
		Variation:   PAg,
		HistoryBits: t.k,
		Entries:     entries,
		Assoc:       assoc,
		Ideal:       ideal,
		Preset:      t.Preset(),
	})
}

// Profile is the per-branch profiling static scheme (§4.2): each static
// branch is predicted in the direction it took most frequently during the
// training run; branches unseen in training are predicted taken. The
// profile is a flat.PCIndex directory over a dense direction array, which
// the flat replay kernel reads in place.
type Profile struct {
	dir   flat.PCIndex
	taken []bool // per dense index
	name  string
}

// ProfileTrainer counts per-branch outcomes during a training run.
type ProfileTrainer struct {
	dir    flat.PCIndex
	counts [][2]uint64 // per dense index: not-taken, taken
}

// NewProfileTrainer returns an empty profile trainer.
func NewProfileTrainer() *ProfileTrainer { return &ProfileTrainer{} }

// Observe records one resolved conditional branch.
func (t *ProfileTrainer) Observe(b trace.Branch) {
	i, added := t.dir.Add(b.PC)
	if added {
		t.counts = append(t.counts, [2]uint64{})
	}
	t.counts[i][bit(b.Taken)]++
}

// ObserveTrace drains a trace source, observing every conditional branch.
func (t *ProfileTrainer) ObserveTrace(src trace.Source) error {
	return observeConds(src, t.Observe)
}

// Build freezes the profile into a predictor. Ties predict taken. The
// predictor owns its tables: later observations do not change it.
func (t *ProfileTrainer) Build() *Profile {
	p := &Profile{dir: t.dir.Clone(), taken: make([]bool, len(t.counts)), name: "Profiling"}
	for i, n := range t.counts {
		p.taken[i] = n[1] >= n[0]
	}
	return p
}

// Name implements Predictor.
func (p *Profile) Name() string { return p.name }

// Direction returns the profiled direction of the branch at pc: its
// training majority, or taken when training never saw it.
func (p *Profile) Direction(pc uint32) bool {
	if i, ok := p.dir.Get(pc); ok {
		return p.taken[i]
	}
	return true
}

// Predict implements Predictor.
func (p *Profile) Predict(b trace.Branch) bool { return p.Direction(b.PC) }

// Update implements Predictor; profiles are static.
func (p *Profile) Update(trace.Branch, bool) {}

// ContextSwitch implements Predictor; profiles hold no dynamic state.
func (p *Profile) ContextSwitch() {}

// ensure interface compliance
var (
	_ Predictor = (*TwoLevel)(nil)
	_ Predictor = (*Profile)(nil)
)
