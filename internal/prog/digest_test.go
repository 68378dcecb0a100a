package prog

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"twolevel/internal/cpu"
	"twolevel/internal/trace"
)

// digestConds is the capture budget the pinned digests cover: the
// paper-default experiment budget of 100k conditional branches.
const digestConds = 100_000

// pinnedDigest is the recorded fingerprint of one (benchmark, data set)
// pair: what the generator, assembler and interpreter together produce.
type pinnedDigest struct {
	image    string // SHA-256 of the assembled image, hex
	events   int    // events in the digestConds-conditional capture
	checksum uint64 // Snapshot.Checksum of that capture
	restarts uint32 // program restarts the capture took
}

// pinnedDigests are constants, not computed: they were recorded once
// and must not be edited to make a change pass. A rewrite of the
// program generators, the assembler or the interpreter that keeps every
// emitted event identical keeps all of them.
var pinnedDigests = map[string]pinnedDigest{
	"eqntott/int_pri_3.eqn":        {"bfd41da53cdb100a3fac2836b3a2320c6cc521ee5e9000111ffa2aff854a69bb", 119066, 0xf526ff695e0cc23e, 4},
	"eqntott/NA (reduced PLA)":     {"99ded77bb67c3097bdc1f86ea1df8c28af030ad80516a313ab711f87abe416bb", 118483, 0xcc18bd2232f5c199, 8},
	"espresso/bca":                 {"5934070fa3b25d34debbb74b3657e806b7e0e2259c10150d08b189d0cbb7f9f8", 100575, 0x640f843fe90b13a3, 21},
	"espresso/cps":                 {"8be107bb63bd5eea153c04a136bd123b194b05b391420ff07de68e6784608e77", 100684, 0xcfcb7d5026a92dbb, 27},
	"gcc/dbxout.i":                 {"aaac4b4fec08ff52418b93e2f0a7811fed88cf239a65f814021cc5050a92b509", 177831, 0x197bce53f2cadfc5, 31},
	"gcc/cexp.i":                   {"088d0a7d1814c87c5be01a478b1b4553152924a496ab6cac9f93f818175b73a4", 174151, 0x2953376d6a9cc337, 39},
	"li/eight queens":              {"5fc9cdcc7c6ff8918ef8756530397dd4c8b20601b089ddeddca6c632e1e4f30c", 170186, 0x3f2b4970d0a6a2f8, 3},
	"li/tower of hanoi":            {"98d50e8f3cef54c14741405807bcd82ea4a08a6ce9f5ecf4c47d6c3a5d30a092", 228398, 0x4f7143d99bcfecad, 22},
	"doduc/doducin":                {"0e3f1140cdde5fc9fb10e30119188cea7dafef0bdde64dde93c7ed6389d935b6", 111681, 0x9d401d368765597b, 56},
	"doduc/tiny doducin":           {"27ef78ee276ed19ec99b4a1f67b91ae06c009e094b34c19908ea52d4d1d2cedb", 110161, 0x52dbfe69331ce778, 67},
	"fpppp/natoms":                 {"6b674ea638ea82804f383558c8fc61ba2d03e494740c6cf2b4b160d90e68bed9", 100374, 0x33fb22ba8774da80, 19},
	"fpppp/NA (natoms reduced)":    {"c9525327f3c9720af0985f40607ffbc0d1fc7d7344c15f010ebe425d1fd47662", 100693, 0x2bdb76e6830d3634, 42},
	"matrix300/built-in":           {"aa636b93cef39496da32e4ab6789a6171fae133f855d1021f616366107a2b7f0", 100245, 0x9b091cbba908038f, 1},
	"matrix300/built-in (reduced)": {"d943e5419e1600a81a93f09cc5cac64218b765aa352852a7cfe9d9665bd61591", 100392, 0x8bfe84e29d195a0c, 2},
	"spice2g6/greycode.in":         {"874b473fa2b661019656cd779bef6b8a3ea6de4812b2d83e4c2e7ebe2d022d17", 117378, 0x52a85a44cf95f7b1, 22},
	"spice2g6/short greycode.in":   {"6eb657df9e0d32ab73217363fdc0ac3a8d944d1f6226abc00c29289871324302", 116242, 0x61f0d35308e393ab, 31},
	"tomcatv/built-in":             {"503c4d0aacd5e087a10e6f9f1dbaa9e712887cd92733376354cd8a05ad79653e", 128225, 0x7504140d42b7a803, 1},
	"tomcatv/built-in (reduced)":   {"1f5945414bd36ad6e06f892923f337aad7cefcbd6951684776676f9c9eec624e", 125700, 0xd378d0deb0fe4b09, 3},
}

// digest assembles b with ds and captures digestConds conditional
// branches from a fresh looping CPU.
func digest(t testing.TB, b *Benchmark, ds DataSet) pinnedDigest {
	t.Helper()
	p, err := b.Build(ds)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(p.Image)
	c, err := cpu.New(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := cpu.NewSource(c, true)
	snap, err := trace.NewCaptureCache().Capture(context.Background(), "digest", digestConds, func() (trace.Source, error) {
		return src, nil
	})
	if err != nil {
		t.Fatalf("%s/%s: %v", b.Name, ds.Name, err)
	}
	return pinnedDigest{
		image:    hex.EncodeToString(sum[:]),
		events:   snap.Len(),
		checksum: snap.Checksum(),
		restarts: src.Runs(),
	}
}

// TestPinnedDigests checks every (benchmark, data set) pair against its
// recorded image hash, capture length, capture checksum and restart
// count.
func TestPinnedDigests(t *testing.T) {
	for _, b := range All {
		for _, ds := range []DataSet{b.Testing, b.Training} {
			key := b.Name + "/" + ds.Name
			got := digest(t, b, ds)
			want, ok := pinnedDigests[key]
			if !ok {
				t.Errorf("%s: no pinned digest; measured\n\t%q: {%q, %d, %#x, %d},", key, key, got.image, got.events, got.checksum, got.restarts)
				continue
			}
			if got != want {
				t.Errorf("%s: digest %#v, pinned %#v", key, got, want)
			}
		}
	}
	if len(pinnedDigests) != 2*len(All) {
		t.Errorf("%d pinned digests for %d pairs", len(pinnedDigests), 2*len(All))
	}
}
