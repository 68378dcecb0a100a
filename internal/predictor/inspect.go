package predictor

import "twolevel/internal/flat"

// Occupancy reports how much of a predictor's tables a run actually
// exercised — the telemetry behind the "how warm were the tables" half of
// every accuracy number. All counts are cumulative since construction;
// context-switch flushes do not reset them.
type Occupancy struct {
	// BHTCapacity is the branch history table capacity in entries
	// (0 when the scheme has no BHT, or the table is the unbounded
	// ideal BHT).
	BHTCapacity int `json:"bht_capacity"`
	// BHTTouched is the number of distinct BHT entry slots ever
	// allocated. For the ideal BHT it equals the number of distinct
	// static branches seen.
	BHTTouched int `json:"bht_touched"`
	// PHTTables is the number of pattern history tables instantiated:
	// 1 for global-pattern schemes, the set count for per-set schemes,
	// and the number of materialised per-address tables for PAp-style
	// schemes. 0 for schemes without a second level (BTB).
	PHTTables int `json:"pht_tables"`
	// PHTEntriesPerTable is 2^k, the entry count of each pattern table
	// (0 without a second level).
	PHTEntriesPerTable int `json:"pht_entries_per_table"`
	// PHTTouched is the number of distinct (table, pattern) pairs that
	// received at least one update.
	PHTTouched int `json:"pht_touched"`
}

// Inspector is an optional predictor interface exposing table occupancy.
// The Two-Level Adaptive predictors and the BTB designs implement it; the
// static schemes, which keep no tables, do not.
type Inspector interface {
	// Inspect returns the predictor's current table occupancy.
	Inspect() Occupancy
}

// Inspect implements Inspector for every Two-Level Adaptive variation and
// the Static Training structures sharing them.
func (p *TwoLevel) Inspect() Occupancy {
	st := &p.st
	var o Occupancy
	if st.BHT != flat.NoBHT {
		o.BHTTouched = st.BHTTouched()
	}
	if st.BHT == flat.CacheBHT {
		o.BHTCapacity = len(st.Valid)
	}
	o.PHTEntriesPerTable = 1 << p.cfg.HistoryBits
	switch st.PatternAxis {
	case AxisGlobal:
		o.PHTTables = 1
		o.PHTTouched = flat.Ones(st.GTouched)
	case AxisPerSet:
		o.PHTTables = len(st.SetTouched)
		for _, t := range st.SetTouched {
			o.PHTTouched += flat.Ones(t)
		}
	default:
		// Per-address pattern tables are bound to BHT slots; count the
		// materialised ones (flushed entries keep their tables, §5.1.4).
		for _, t := range st.PHTTouched {
			if t != nil {
				o.PHTTables++
				o.PHTTouched += flat.Ones(t)
			}
		}
	}
	return o
}

// Inspect implements Inspector. BTB designs keep the automaton in the
// entry itself — no second level, so only BHT occupancy is reported.
func (p *BTB) Inspect() Occupancy {
	return Occupancy{
		BHTCapacity: len(p.st.Valid),
		BHTTouched:  p.st.BHTTouched(),
	}
}

var (
	_ Inspector = (*TwoLevel)(nil)
	_ Inspector = (*BTB)(nil)
)
