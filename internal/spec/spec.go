// Package spec implements the paper's predictor naming convention (§4.2):
//
//	Scheme(History(Size,Associativity,Entry_Content),
//	       Pattern_Table_Set_Size x Pattern(Size,Entry_Content),
//	       Context_Switch)
//
// Examples, as printed in Table 3:
//
//	GAg(HR(1,,18-sr),1xPHT(2^18,A2),c)
//	PAg(BHT(512,4,12-sr),1xPHT(2^12,A2))
//	PAg(IBHT(inf,,12-sr),1xPHT(2^12,A2))
//	PAp(BHT(512,4,6-sr),512xPHT(2^6,A2),c)
//	GSg(HR(1,,12-sr),1xPHT(2^12,PB))
//	PSg(BHT(512,4,12-sr),1xPHT(2^12,PB))
//	BTB(BHT(512,4,A2),)
//	AlwaysTaken / BTFN / Profiling
//
// A Spec round-trips: Parse(s).String() == canonical(s), and Build turns a
// Spec into a running predictor.
package spec

import (
	"fmt"
	"strconv"
	"strings"

	"twolevel/internal/automaton"
	"twolevel/internal/flat"
	"twolevel/internal/predictor"
)

// Scheme is the outer scheme name of a specification.
type Scheme string

// The schemes simulated in the paper.
const (
	SchemeGAg Scheme = "GAg"
	SchemePAg Scheme = "PAg"
	SchemePAp Scheme = "PAp"
	// SchemeGAp, SchemeGAs, SchemePAs, SchemeSAg, SchemeSAs and
	// SchemeSAp are the repository's extension variations completing
	// the {G,P,S} x {g,p,s} grid of Yeh & Patt's later taxonomy; see
	// predictor.Variation.
	SchemeGAp         Scheme = "GAp"
	SchemeGAs         Scheme = "GAs"
	SchemePAs         Scheme = "PAs"
	SchemeSAg         Scheme = "SAg"
	SchemeSAs         Scheme = "SAs"
	SchemeSAp         Scheme = "SAp"
	SchemeGSg         Scheme = "GSg"
	SchemePSg         Scheme = "PSg"
	SchemeBTB         Scheme = "BTB"
	SchemeAlwaysTaken Scheme = "AlwaysTaken"
	SchemeBTFN        Scheme = "BTFN"
	SchemeProfiling   Scheme = "Profiling"
)

// Spec is a parsed predictor configuration.
type Spec struct {
	// Scheme is the outer scheme.
	Scheme Scheme

	// History level (first level). For GAg/GSg: HistEntries is 1 and
	// Ideal is false. Ideal selects the IBHT (HistEntries 0).
	HistEntries int
	HistAssoc   int
	Ideal       bool
	// HistoryBits is k for shift-register content ("k-sr"); 0 for BTB
	// designs, whose entry content is an automaton instead.
	HistoryBits int

	// HistSets is the untagged per-set history register count of the
	// S* extension schemes (the SHT history entity).
	HistSets int

	// Pattern level (second level). PHTSets is the Pattern_Table_Set_Size
	// (1 for *g, BHT size for PAp practical, 0 = inf for PAp ideal, the
	// per-set table count for *s schemes). Absent for BTB and static
	// schemes (PHTSets 0, HistoryBits 0).
	PHTSets int

	// Automaton is the entry content: the PHT automaton for two-level
	// and static-training schemes, the per-branch automaton for BTB.
	Automaton automaton.Kind

	// ContextSwitch is the trailing ",c" flag: the simulator should
	// inject context switches.
	ContextSwitch bool
}

// globalHist reports whether the scheme's first level is one register.
func (s Spec) globalHist() bool {
	switch s.Scheme {
	case SchemeGAg, SchemeGSg, SchemeGAp, SchemeGAs:
		return true
	}
	return false
}

// setHist reports whether the scheme's first level is an untagged per-set
// register file.
func (s Spec) setHist() bool {
	switch s.Scheme {
	case SchemeSAg, SchemeSAs, SchemeSAp:
		return true
	}
	return false
}

// HasBHT reports whether the spec uses a per-address branch history table.
func (s Spec) HasBHT() bool {
	switch s.Scheme {
	case SchemePAg, SchemePAp, SchemePSg, SchemeBTB:
		return true
	}
	return false
}

// IsStatic reports whether the scheme keeps no run-time state.
func (s Spec) IsStatic() bool {
	switch s.Scheme {
	case SchemeAlwaysTaken, SchemeBTFN, SchemeProfiling:
		return true
	}
	return false
}

// NeedsTraining reports whether Build requires a training pass (Static
// Training and Profiling schemes).
func (s Spec) NeedsTraining() bool {
	switch s.Scheme {
	case SchemeGSg, SchemePSg, SchemeProfiling:
		return true
	}
	return false
}

// String renders the spec in the paper's naming convention.
func (s Spec) String() string {
	var b strings.Builder
	b.WriteString(string(s.Scheme))
	switch s.Scheme {
	case SchemeAlwaysTaken, SchemeBTFN, SchemeProfiling:
		if s.ContextSwitch {
			return b.String() + "(,,c)"
		}
		return b.String()
	}
	b.WriteByte('(')
	// History part.
	switch {
	case s.globalHist():
		fmt.Fprintf(&b, "HR(1,,%d-sr)", s.HistoryBits)
	case s.setHist():
		fmt.Fprintf(&b, "SHT(%d,,%d-sr)", s.HistSets, s.HistoryBits)
	case s.Ideal:
		fmt.Fprintf(&b, "IBHT(inf,,%d-sr)", s.HistoryBits)
	case s.Scheme == SchemeBTB:
		fmt.Fprintf(&b, "BHT(%d,%d,%s)", s.HistEntries, s.HistAssoc, s.Automaton)
	default:
		fmt.Fprintf(&b, "BHT(%d,%d,%d-sr)", s.HistEntries, s.HistAssoc, s.HistoryBits)
	}
	b.WriteByte(',')
	// Pattern part (absent for BTB).
	if s.Scheme != SchemeBTB {
		atm := s.Automaton.String()
		if s.Scheme == SchemeGSg || s.Scheme == SchemePSg {
			atm = "PB"
		}
		if s.PHTSets == 0 {
			fmt.Fprintf(&b, "infxPHT(2^%d,%s)", s.HistoryBits, atm)
		} else {
			fmt.Fprintf(&b, "%dxPHT(2^%d,%s)", s.PHTSets, s.HistoryBits, atm)
		}
	}
	if s.ContextSwitch {
		b.WriteString(",c")
	}
	b.WriteByte(')')
	return b.String()
}

// Parse parses a specification string. Whitespace is ignored. The
// multiplication sign in the pattern part may be 'x' or 'X'.
func Parse(input string) (Spec, error) {
	s := strings.Map(func(r rune) rune {
		if r == ' ' || r == '\t' {
			return -1
		}
		return r
	}, input)
	if s == "" {
		return Spec{}, fmt.Errorf("spec: empty specification")
	}
	open := strings.IndexByte(s, '(')
	name := s
	var args string
	if open >= 0 {
		if !strings.HasSuffix(s, ")") {
			return Spec{}, fmt.Errorf("spec: %q: missing closing parenthesis", input)
		}
		name = s[:open]
		args = s[open+1 : len(s)-1]
	}
	sp := Spec{Scheme: Scheme(name)}
	switch sp.Scheme {
	case SchemeAlwaysTaken, SchemeBTFN, SchemeProfiling:
		for _, f := range splitTop(args) {
			switch f {
			case "", " ":
			case "c":
				sp.ContextSwitch = true
			default:
				return Spec{}, fmt.Errorf("spec: %q: static scheme takes only a context-switch flag", input)
			}
		}
		return sp, nil
	case SchemeGAg, SchemePAg, SchemePAp, SchemeGAp, SchemeGAs, SchemePAs,
		SchemeSAg, SchemeSAs, SchemeSAp, SchemeGSg, SchemePSg, SchemeBTB:
	default:
		return Spec{}, fmt.Errorf("spec: unknown scheme %q", name)
	}
	fields := splitTop(args)
	if len(fields) < 1 {
		return Spec{}, fmt.Errorf("spec: %q: missing history part", input)
	}
	if err := sp.parseHistory(fields[0]); err != nil {
		return Spec{}, fmt.Errorf("spec: %q: %v", input, err)
	}
	rest := fields[1:]
	if sp.Scheme != SchemeBTB {
		if len(rest) < 1 || rest[0] == "" {
			return Spec{}, fmt.Errorf("spec: %q: missing pattern part", input)
		}
		if err := sp.parsePattern(rest[0]); err != nil {
			return Spec{}, fmt.Errorf("spec: %q: %v", input, err)
		}
		rest = rest[1:]
	} else if len(rest) > 0 && rest[0] == "" {
		rest = rest[1:] // BTB prints an empty pattern slot: BTB(...,)
	}
	for _, f := range rest {
		switch f {
		case "":
		case "c":
			sp.ContextSwitch = true
		default:
			return Spec{}, fmt.Errorf("spec: %q: unexpected field %q", input, f)
		}
	}
	return sp, sp.Validate()
}

// MustParse is Parse that panics on error, for tables of known-good specs.
func MustParse(input string) Spec {
	sp, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return sp
}

// splitTop splits on commas not nested inside parentheses.
func splitTop(s string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) || len(out) > 0 && start == len(s) {
		out = append(out, s[start:])
	} else if s != "" {
		out = append(out, s)
	}
	return out
}

func (sp *Spec) parseHistory(f string) error {
	kind, args, err := call(f)
	if err != nil {
		return err
	}
	parts := strings.Split(args, ",")
	if len(parts) != 3 {
		return fmt.Errorf("history %q wants 3 fields", f)
	}
	size, assoc, content := parts[0], parts[1], parts[2]
	switch kind {
	case "HR":
		if !sp.globalHist() {
			return fmt.Errorf("HR history is only valid for global-history schemes")
		}
		if size != "1" {
			return fmt.Errorf("HR size must be 1, got %q", size)
		}
		sp.HistEntries = 1
	case "SHT":
		if !sp.setHist() {
			return fmt.Errorf("SHT history is only valid for per-set schemes (SAg/SAs/SAp)")
		}
		n, err := strconv.Atoi(size)
		if err != nil || n <= 0 || n&(n-1) != 0 {
			return fmt.Errorf("SHT size %q must be a power of two", size)
		}
		sp.HistSets = n
	case "IBHT":
		if sp.globalHist() || sp.setHist() {
			return fmt.Errorf("IBHT history is only valid for per-address schemes")
		}
		if size != "inf" {
			return fmt.Errorf("IBHT size must be inf, got %q", size)
		}
		sp.Ideal = true
	case "BHT":
		if sp.globalHist() || sp.setHist() {
			return fmt.Errorf("BHT history is only valid for per-address schemes")
		}
		n, err := strconv.Atoi(size)
		if err != nil || n <= 0 {
			return fmt.Errorf("BHT size %q", size)
		}
		a, err := strconv.Atoi(assoc)
		if err != nil || a <= 0 {
			return fmt.Errorf("BHT associativity %q", assoc)
		}
		sp.HistEntries, sp.HistAssoc = n, a
	default:
		return fmt.Errorf("unknown history entity %q", kind)
	}
	// Entry content: "k-sr" shift register, or an automaton for BTB.
	if sp.Scheme == SchemeBTB {
		k, err := automaton.ParseKind(content)
		if err != nil {
			return fmt.Errorf("BTB entry content: %v", err)
		}
		sp.Automaton = k
		return nil
	}
	k, ok := strings.CutSuffix(content, "-sr")
	if !ok {
		return fmt.Errorf("history entry content %q is not a shift register (k-sr)", content)
	}
	bits, err := strconv.Atoi(k)
	if err != nil || bits < 1 || bits > flat.MaxHistoryBits {
		return fmt.Errorf("history register length %q", k)
	}
	sp.HistoryBits = bits
	return nil
}

func (sp *Spec) parsePattern(f string) error {
	// Form: <sets>xPHT(2^k,Atm) where sets is an integer or "inf".
	ix := strings.IndexAny(f, "xX")
	if ix < 0 {
		return fmt.Errorf("pattern %q missing set size", f)
	}
	setsStr := f[:ix]
	if setsStr == "inf" {
		sp.PHTSets = 0
	} else {
		n, err := strconv.Atoi(setsStr)
		if err != nil || n <= 0 {
			return fmt.Errorf("pattern set size %q", setsStr)
		}
		sp.PHTSets = n
	}
	kind, args, err := call(f[ix+1:])
	if err != nil {
		return err
	}
	if kind != "PHT" {
		return fmt.Errorf("pattern entity %q, want PHT", kind)
	}
	parts := strings.Split(args, ",")
	if len(parts) != 2 {
		return fmt.Errorf("pattern %q wants 2 fields", f)
	}
	expBits, ok := strings.CutPrefix(parts[0], "2^")
	if !ok {
		return fmt.Errorf("pattern size %q must be 2^k", parts[0])
	}
	bits, err := strconv.Atoi(expBits)
	if err != nil || bits != sp.HistoryBits {
		return fmt.Errorf("pattern size 2^%s does not match %d-bit history", expBits, sp.HistoryBits)
	}
	atm, err := automaton.ParseKind(parts[1])
	if err != nil {
		return err
	}
	sp.Automaton = atm
	return nil
}

// call splits "Name(args)" into its parts.
func call(s string) (name, args string, err error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return "", "", fmt.Errorf("malformed call %q", s)
	}
	return s[:open], s[open+1 : len(s)-1], nil
}

// Validate checks cross-field consistency. The predictor's own bounds,
// such as its pattern-table cap, are left to Build and CheckTables: a
// spec that is only costed may be larger than one that can be built.
func (sp Spec) Validate() error {
	switch sp.Scheme {
	case SchemeGAg, SchemeGSg:
		if sp.HistoryBits < 1 {
			return fmt.Errorf("spec: %s requires a history register length", sp.Scheme)
		}
		if sp.PHTSets != 1 {
			return fmt.Errorf("spec: %s requires exactly one pattern table", sp.Scheme)
		}
	case SchemePAg, SchemePSg:
		if sp.HistoryBits < 1 {
			return fmt.Errorf("spec: %s requires a history register length", sp.Scheme)
		}
		if sp.PHTSets != 1 {
			return fmt.Errorf("spec: %s requires exactly one pattern table", sp.Scheme)
		}
	case SchemePAp:
		if sp.HistoryBits < 1 {
			return fmt.Errorf("spec: %s requires a history register length", sp.Scheme)
		}
		if sp.Ideal {
			if sp.PHTSets != 0 {
				return fmt.Errorf("spec: ideal PAp requires inf pattern tables")
			}
		} else if sp.PHTSets != sp.HistEntries {
			return fmt.Errorf("spec: PAp pattern set size %d must equal BHT size %d (p = h)",
				sp.PHTSets, sp.HistEntries)
		}
	case SchemeGAp:
		if sp.HistoryBits < 1 {
			return fmt.Errorf("spec: %s requires a history register length", sp.Scheme)
		}
		if sp.PHTSets != 0 && (sp.PHTSets&(sp.PHTSets-1) != 0) {
			return fmt.Errorf("spec: GAp pattern set size %d must be a power of two (or inf)", sp.PHTSets)
		}
	case SchemeSAp:
		if sp.HistoryBits < 1 {
			return fmt.Errorf("spec: %s requires a history register length", sp.Scheme)
		}
		if sp.PHTSets != 0 && (sp.PHTSets&(sp.PHTSets-1) != 0) {
			return fmt.Errorf("spec: SAp pattern set size %d must be a power of two (or inf)", sp.PHTSets)
		}
	case SchemeGAs, SchemePAs, SchemeSAs:
		if sp.HistoryBits < 1 {
			return fmt.Errorf("spec: %s requires a history register length", sp.Scheme)
		}
		if sp.PHTSets <= 0 || sp.PHTSets&(sp.PHTSets-1) != 0 {
			return fmt.Errorf("spec: %s pattern set size %d must be a power of two", sp.Scheme, sp.PHTSets)
		}
	}
	if sp.setHist() && (sp.HistSets <= 0 || sp.HistSets&(sp.HistSets-1) != 0) {
		return fmt.Errorf("spec: %s requires a power-of-two SHT size", sp.Scheme)
	}
	if (sp.Scheme == SchemeGSg || sp.Scheme == SchemePSg) && sp.Automaton != automaton.PB {
		return fmt.Errorf("spec: static training requires PB pattern entries")
	}
	if sp.HasBHT() && !sp.Ideal {
		if sp.HistEntries&(sp.HistEntries-1) != 0 {
			return fmt.Errorf("spec: BHT size %d must be a power of two", sp.HistEntries)
		}
		if sp.HistAssoc&(sp.HistAssoc-1) != 0 || sp.HistAssoc > sp.HistEntries {
			return fmt.Errorf("spec: BHT associativity %d invalid", sp.HistAssoc)
		}
	}
	return nil
}

// CheckTables reports whether Build's predictor constructor would refuse
// a two-level sp, and whether its pattern tables stay within
// predictor.MaxPatternEntries over a run that sees at most sites
// distinct branches (an Ideal BHT gives each its own table). It
// allocates nothing, so a server can refuse a spec before it trains or
// builds it.
func (sp Spec) CheckTables(sites int) error {
	cfg, ok := sp.twoLevel()
	if !ok {
		return nil
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	return cfg.CheckPatternTables(sites)
}

// TrainingData carries the training-pass products needed to build the
// schemes that are preset before execution (GSg, PSg, Profiling).
type TrainingData struct {
	// Static is the pattern trainer for GSg (global) or PSg
	// (per-address). Its history configuration must match the spec.
	Static *predictor.StaticTrainer
	// Profile is the per-branch profile trainer for Profiling.
	Profile *predictor.ProfileTrainer
}

// Build constructs the predictor described by sp. Schemes for which
// NeedsTraining is true require the corresponding trainer in td.
func Build(sp Spec, td *TrainingData) (predictor.Predictor, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	switch sp.Scheme {
	case SchemeAlwaysTaken:
		return predictor.AlwaysTaken{}, nil
	case SchemeBTFN:
		return predictor.BTFN{}, nil
	case SchemeProfiling:
		if td == nil || td.Profile == nil {
			return nil, fmt.Errorf("spec: %s requires a profile training pass", sp.Scheme)
		}
		return td.Profile.Build(), nil
	case SchemeBTB:
		return predictor.NewBTB(predictor.BTBConfig{
			Entries:     sp.HistEntries,
			Assoc:       sp.HistAssoc,
			Automaton:   sp.Automaton,
			DisplayName: sp.String(),
		})
	}
	cfg, _ := sp.twoLevel()
	cfg.DisplayName = sp.String()
	if sp.NeedsTraining() {
		if td == nil || td.Static == nil {
			return nil, fmt.Errorf("spec: %s requires a static training pass", sp.Scheme)
		}
		cfg.Preset = td.Static.Preset()
	}
	return predictor.NewTwoLevel(cfg)
}

// variations maps each two-level scheme to its predictor variation. The
// Static Training structures GSg and PSg are GAg and PAg whose pattern
// table Build presets.
var variations = map[Scheme]predictor.Variation{
	SchemeGAg: predictor.GAg, SchemeGSg: predictor.GAg,
	SchemePAg: predictor.PAg, SchemePSg: predictor.PAg,
	SchemePAp: predictor.PAp, SchemeGAp: predictor.GAp,
	SchemeGAs: predictor.GAs, SchemePAs: predictor.PAs,
	SchemeSAg: predictor.SAg, SchemeSAs: predictor.SAs, SchemeSAp: predictor.SAp,
}

// twoLevel returns the predictor configuration Build constructs for a
// two-level scheme, less its name and preset; ok is false for BTB and
// the static schemes.
func (sp Spec) twoLevel() (cfg predictor.TwoLevelConfig, ok bool) {
	v, ok := variations[sp.Scheme]
	if !ok {
		return cfg, false
	}
	cfg = predictor.TwoLevelConfig{
		Variation:   v,
		HistoryBits: sp.HistoryBits,
		Automaton:   sp.Automaton,
		HistorySets: sp.HistSets,
		PatternSets: sp.PHTSets,
		Entries:     sp.HistEntries,
		Assoc:       sp.HistAssoc,
		Ideal:       sp.Ideal,
	}
	if sp.Scheme == SchemeGAp || sp.Scheme == SchemeSAp {
		// Per-address pattern binding without a BHT uses a 4-way cache
		// sized by the pattern set count, a fixed implementation choice
		// (the naming convention has no field for it).
		cfg.Entries, cfg.Assoc, cfg.Ideal = sp.PHTSets, 4, sp.PHTSets == 0
		if cfg.Entries > 0 && cfg.Entries < 4 {
			cfg.Assoc = cfg.Entries
		}
	}
	return cfg, true
}

// NewTrainer returns the pattern trainer matching sp's structure, for
// running the training pass of a GSg/PSg scheme.
func NewTrainer(sp Spec) (*predictor.StaticTrainer, error) {
	switch sp.Scheme {
	case SchemeGSg:
		return predictor.NewStaticTrainer(sp.HistoryBits, false), nil
	case SchemePSg:
		return predictor.NewStaticTrainer(sp.HistoryBits, true), nil
	default:
		return nil, fmt.Errorf("spec: %s does not use a static trainer", sp.Scheme)
	}
}
